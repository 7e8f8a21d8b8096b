"""End-to-end serving-engine tests: conservation, determinism, QoS."""

import json

import pytest

from repro.obs import MetricsRegistry, WindowedRecorder
from repro.serve import (
    ServeEngine,
    build_artifact,
    dump_artifact,
    parse_mix,
    per_tenant_reports,
    render_markdown,
)


def run_serve(make_system, mix, scheduler="fifo", n=60, seed=11, **kw):
    specs = parse_mix(mix, n_requests=n, slo_us=2000.0,
                      sq_depth=kw.pop("sq_depth", 256))
    engine = ServeEngine(
        make_system(), specs, seed=seed, scheduler=scheduler, n_channels=4, **kw
    )
    return engine.run()


class TestConservation:
    MIX = "fin-2:2,web-1:1:5,prj-1:1@closed"

    def test_every_submission_is_accounted_for(self, make_system):
        result = run_serve(make_system, self.MIX)
        fleet = result.fleet_summary()
        assert fleet["submitted"] == fleet["completed"] + fleet["rejected"]
        assert fleet["rejected"] == 0
        assert fleet["completed"] == 4 * 60
        for spec in result.specs:
            row = result.tenant_summary(spec.tenant_id)
            assert row["submitted"] == row["completed"] + row["rejected"]
            assert row["completed"] == 60

    def test_fleet_histogram_is_exact_union_of_tenants(self, make_system):
        result = run_serve(make_system, self.MIX)
        assert result.fleet_hist.count == sum(
            h.count for h in result.source.response_hists
        )
        assert result.fleet_hist.max() == max(
            h.max() for h in result.source.response_hists
        )
        assert result.fleet_hist.sum == pytest.approx(
            sum(h.sum for h in result.source.response_hists)
        )

    def test_sq_overflow_rejects_but_conserves(self, make_system):
        result = run_serve(
            make_system, "fin-2:2,fin-2:1:80", sq_depth=4, n=100
        )
        fleet = result.fleet_summary()
        assert fleet["rejected"] > 0
        assert fleet["submitted"] == fleet["completed"] + fleet["rejected"]
        noisy = result.tenant_summary(2)
        assert noisy["rejected"] > 0
        assert noisy["sq_depth_high_water"] == 4

    def test_closed_loop_tenants_complete_their_streams(self, make_system):
        result = run_serve(make_system, "fin-2:2@closed", n=40)
        for tenant_id in (0, 1):
            row = result.tenant_summary(tenant_id)
            assert row["completed"] == 40
            assert row["rejected"] == 0


class TestDeterminism:
    MIX = "fin-2:2,fin-2:1:10"

    def artifact_bytes(self, make_system, seed=11):
        result = run_serve(make_system, self.MIX, scheduler="wfq", seed=seed)
        reports = per_tenant_reports(result.tracer.spans)
        return dump_artifact(build_artifact(result, reports))

    def test_artifact_is_byte_deterministic(self, make_system):
        assert self.artifact_bytes(make_system) == self.artifact_bytes(
            make_system
        )

    def test_seed_changes_the_artifact(self, make_system):
        assert self.artifact_bytes(make_system, seed=11) != self.artifact_bytes(
            make_system, seed=12
        )


class TestSloAttribution:
    def test_per_tenant_blame_fractions_sum_to_one(self, make_system):
        result = run_serve(make_system, "fin-2:2,fin-2:1:10")
        reports = per_tenant_reports(result.tracer.spans)
        assert set(reports) == {"t0", "t1", "t2"}
        for report in reports.values():
            assert report.n_requests == 60
            for band in (*report.bands.values(), report.overall):
                if band.n_requests:
                    assert sum(band.fractions().values()) == pytest.approx(
                        1.0, rel=1e-9
                    )

    def test_attribution_reconciles_with_response_histograms(
        self, make_system
    ):
        result = run_serve(make_system, "fin-2:2")
        reports = per_tenant_reports(result.tracer.spans)
        for spec in result.specs:
            hist = result.source.response_hists[spec.tenant_id]
            assert reports[spec.name].total_us == pytest.approx(hist.sum)

    def test_artifact_shape_and_markdown(self, make_system):
        result = run_serve(make_system, "fin-2:1,web-1:1")
        artifact = build_artifact(result)
        assert artifact["schema"] == "repro.serve/1"
        assert set(artifact["tenants"]) == {"t0", "t1"}
        row = artifact["tenants"]["t0"]
        assert row["slo_us"] == 2000.0
        assert "attribution" in row
        assert json.loads(dump_artifact(artifact)) == artifact
        markdown = render_markdown(artifact)
        assert "Multi-tenant serving report" in markdown
        assert "| t1 |" in markdown


class TestRetainedRoots:
    """Serve keeps one childless, attributed root per completed request."""

    def test_roots_match_the_completion_queues(self, make_system, monkeypatch):
        from repro.serve.queues import CompletionQueue

        posted = {}
        post = CompletionQueue.post

        def recording_post(self, request, completion_us, response_us):
            posted[(self.spec.name, request.seq)] = response_us
            post(self, request, completion_us, response_us)

        monkeypatch.setattr(CompletionQueue, "post", recording_post)
        result = run_serve(make_system, "fin-2:2,web-1:1:5", scheduler="wfq")
        spans = result.tracer.spans
        assert len(spans) == result.fleet_summary()["completed"] == len(posted)
        for root in spans:
            assert root.children == []
            assert root.attribution is not None
            key = (root.attrs["tenant"], root.attrs["tseq"])
            assert root.duration_us == posted[key]


class TestMarkdownEdgeCases:
    def test_zero_completed_tenant_renders_rejected_only_row(self):
        artifact = {
            "schema": "repro.serve/1",
            "config": {
                "system": "flexlevel",
                "scheduler": "fifo",
                "seed": 1,
                "window": 8,
                "n_channels": 4,
            },
            "fleet": {
                "n_tenants": 2,
                "completed": 60,
                "rejected": 60,
                "slo_violations": 0,
                "slo_violation_rate": 0.0,
                "p50_response_us": 200.0,
                "p95_response_us": 400.0,
                "p99_response_us": 500.0,
            },
            "tenants": {
                "t0": {
                    "workload": "fin-2",
                    "rate_x": 1.0,
                    "completed": 60,
                    "rejected": 0,
                    "slo_violation_rate": 0.0,
                    "p50_response_us": 200.0,
                    "p99_response_us": 500.0,
                },
                "t1": {
                    "workload": "fin-2",
                    "rate_x": 500.0,
                    "completed": 0,
                    "rejected": 60,
                },
            },
        }
        markdown = render_markdown(artifact)
        assert "| t1 | fin-2 | 500x | 0 | 60 | — | — | — | rejected-only |" in (
            markdown
        )
        assert "| t0 | fin-2 | 1x | 60 | 0 |" in markdown


class TestHealthMonitorIntegration:
    OVERLOAD = "fin-2:1,fin-2:1:200"

    def run_monitored(self, make_system, monitored=True, **kw):
        from repro.obs.monitor import MonitorConfig

        specs = parse_mix(
            self.OVERLOAD, n_requests=120, slo_us=2000.0, sq_depth=4
        )
        engine = ServeEngine(
            make_system(),
            specs,
            seed=3,
            scheduler="fifo",
            n_channels=4,
            recorder=WindowedRecorder(window_us=1000.0),
            monitor_config=MonitorConfig() if monitored else None,
            **kw,
        )
        return engine.run()

    def test_monitor_requires_recorder(self, make_system):
        from repro.errors import ConfigurationError
        from repro.obs.monitor import MonitorConfig

        specs = parse_mix("fin-2:1", n_requests=10, slo_us=2000.0,
                          sq_depth=8)
        with pytest.raises(ConfigurationError):
            ServeEngine(
                make_system(), specs, monitor_config=MonitorConfig()
            )

    def test_overload_fires_tenant_burn_alerts(self, make_system):
        result = self.run_monitored(make_system)
        monitor = result.monitor
        assert monitor is not None
        burn = [a for a in monitor.alerts if a.kind == "burn_rate"]
        assert burn
        # The noisy neighbor (t1) burns its budget; rule names carry
        # the tenant identity and the firing pair.
        assert all(a.rule.startswith("burn.t1.") for a in burn)
        assert all(
            a.blame is not None and a.blame["basis"] != "none" for a in burn
        )

    def test_attaching_monitor_leaves_artifact_identical(self, make_system):
        plain = self.run_monitored(make_system, monitored=False)
        monitored = self.run_monitored(make_system, monitored=True)
        plain_art = build_artifact(plain, per_tenant_reports(plain.tracer.spans))
        mon_art = build_artifact(
            monitored, per_tenant_reports(monitored.tracer.spans)
        )
        assert "monitor" not in plain_art
        mon_art.pop("monitor")
        assert dump_artifact(plain_art) == dump_artifact(mon_art)

    def test_monitor_section_is_deterministic(self, make_system):
        first = self.run_monitored(make_system)
        second = self.run_monitored(make_system)
        art1 = build_artifact(first)
        art2 = build_artifact(second)
        assert art1["monitor"] == art2["monitor"]
        assert art1["monitor"]["fingerprint"] == art2["monitor"]["fingerprint"]
        assert art1["monitor"]["schema"] == "repro.monitor/1"


class TestQosIsolation:
    """The noisy-neighbor story: WFQ isolates the victim, FIFO does not."""

    VICTIMS = "fin-2:3:8"
    MIX = VICTIMS + ",fin-2:1:80"  # noisy neighbor at 10x the victims

    def victim_p99(self, make_system, scheduler, mix, n=120):
        result = run_serve(make_system, mix, scheduler=scheduler, n=n, seed=11)
        return result.tenant_quantile(0, 99)

    def test_wfq_keeps_victim_tail_below_fifo(self, make_system):
        fifo = self.victim_p99(make_system, "fifo", self.MIX)
        wfq = self.victim_p99(make_system, "wfq", self.MIX)
        assert wfq < fifo / 1.5

    def test_schedulers_conserve_identical_work(self, make_system):
        totals = set()
        for scheduler in ("fifo", "wfq", "edf"):
            result = run_serve(make_system, self.MIX, scheduler=scheduler, n=120)
            fleet = result.fleet_summary()
            totals.add((fleet["submitted"], fleet["completed"]))
        assert len(totals) == 1


class TestKnobs:
    def test_admission_shaping_stretches_the_run(self, make_system):
        free = run_serve(make_system, "fin-2:1:20", n=80)
        shaped = run_serve(
            make_system, "fin-2:1:20", n=80, admission_rate_per_s=200.0
        )
        assert shaped.fleet_summary()["completed"] == 80
        # 80 requests through a 200/s bucket take >= ~0.35 s of
        # virtual time; unshaped fin-2 at 20x offers far faster.
        assert (
            shaped.fleet_summary()["p99_response_us"]
            > free.fleet_summary()["p99_response_us"]
        )

    def test_window_gating_limits_inflight(self, make_system):
        result = run_serve(make_system, "fin-2:2:20", n=60, window=1)
        # Window 1 serializes the device: SQ backlog must form.
        high_water = max(
            result.tenant_summary(t)["sq_depth_high_water"] for t in (0, 1)
        )
        assert high_water > 1
        fleet = result.fleet_summary()
        assert fleet["completed"] == 120

    def test_registry_and_recorder_integration(self, make_system):
        registry = MetricsRegistry()
        recorder = WindowedRecorder(window_us=1000.0)
        result = run_serve(
            make_system,
            "fin-2:1,fin-2:1:10",
            registry=registry,
            recorder=recorder,
        )
        snapshot = registry.snapshot()
        assert snapshot["serve.tenant.t0.completed"] == 60.0
        assert snapshot["serve.fleet.response_us.count"] == 120.0
        series = recorder.to_dict()["series"]
        assert "serve.tenant.t0.completions" in series
        assert "serve.tenant.t1.sq_depth" in series
        assert result.fleet_summary()["completed"] == 120


class TestCrashConservation:
    def test_clean_run_has_empty_aborted_bucket(self, make_system):
        result = run_serve(make_system, "fin-2:2,web-1:1:5")
        fleet = result.fleet_summary()
        assert fleet["crashed"] is False
        assert fleet["aborted"] == 0

    def test_crashed_run_conserves_with_aborted_bucket(self, make_system):
        """A power cut mid-run aborts in-flight and queued requests —
        they land in an explicit ``aborted`` bucket and the conservation
        identity extends to submitted == rejected + completed + aborted."""
        specs = parse_mix(
            "fin-2:1:40,prj-1:1:40", n_requests=200, slo_us=2000.0,
            sq_depth=256,
        )
        engine = ServeEngine(make_system(), specs, seed=11, n_channels=4)
        result = engine.run(crash_us=2_000.0)
        fleet = result.fleet_summary()
        assert fleet["crashed"] is True
        assert fleet["aborted"] > 0
        assert (
            fleet["submitted"]
            == fleet["rejected"] + fleet["completed"] + fleet["aborted"]
        )
        for spec in result.specs:
            row = result.tenant_summary(spec.tenant_id)
            assert (
                row["submitted"]
                == row["rejected"] + row["completed"] + row["aborted"]
            )

    def test_crash_flows_into_artifact(self, make_system):
        specs = parse_mix("fin-2:1:40", n_requests=120, slo_us=2000.0,
                          sq_depth=256)
        engine = ServeEngine(make_system(), specs, seed=11, n_channels=4)
        result = engine.run(crash_us=2_000.0)
        artifact = build_artifact(result)
        assert artifact["fleet"]["crashed"] is True
        assert artifact["fleet"]["aborted"] > 0
