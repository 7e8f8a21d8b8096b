"""Tests for the online health monitor: detectors, rules, burn, e2e."""

import io
import json

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.errors import ConfigurationError
from repro.ftl.config import SsdConfig
from repro.obs import MetricsRegistry, Tracer, WindowedRecorder
from repro.obs.monitor import (
    BurnRateRule,
    ChangePointRule,
    CusumDetector,
    HealthMonitor,
    MonitorConfig,
    PageHinkleyDetector,
    TailBurnSource,
    TtyStatusView,
    default_rules,
    make_detector,
    metric_kind,
    monitor_fingerprint,
    parse_rule,
    prometheus_name,
    prometheus_text,
)
from repro.traces.schema import TraceRecord


class TestDetectors:
    def test_cusum_fires_on_sustained_step(self):
        detector = CusumDetector(k=0.5, h=8.0, warmup=4)
        for _ in range(4):
            assert detector.update(1.0) is None
        # z caps at 8: each elevated window adds 7.5, so the step must
        # be sustained for ceil(8 / 7.5) + 1 = 2 windows.
        assert detector.update(5.0) is None
        alarm = detector.update(5.0)
        assert alarm is not None
        assert alarm.kind == "cusum"
        assert alarm.score > alarm.threshold

    def test_single_spike_never_alarms(self):
        detector = CusumDetector(k=0.5, h=8.0, warmup=4)
        values = [1.0] * 4 + [50.0] + [1.0] * 40
        alarms = [detector.update(v) for v in values]
        assert not any(alarms)

    def test_rearm_gives_one_alarm_per_persistent_step(self):
        detector = CusumDetector(k=0.5, h=8.0, warmup=4)
        alarms = [detector.update(1.0) for _ in range(4)]
        alarms += [detector.update(5.0) for _ in range(30)]
        fired = [a for a in alarms if a is not None]
        # Re-arm recalibrates at the new level: a latched step is one
        # alarm, not one per window.
        assert len(fired) == 1
        assert detector.n_alarms == 1

    def test_page_hinkley_detects_ramp(self):
        detector = PageHinkleyDetector(delta=0.25, lam=12.0, warmup=4)
        for _ in range(4):
            assert detector.update(0.0) is None
        fired = [detector.update(0.5 * i) for i in range(1, 10)]
        assert any(fired)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CusumDetector(h=0.0)
        with pytest.raises(ConfigurationError):
            CusumDetector(k=-1.0)
        with pytest.raises(ConfigurationError):
            CusumDetector(warmup=1)
        with pytest.raises(ConfigurationError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ConfigurationError):
            make_detector("nope")

    def test_state_is_json_safe(self):
        detector = make_detector("page_hinkley", lam=6.0, warmup=2)
        detector.update(1.0)
        detector.update(2.0)
        json.dumps(detector.state())


class TestRules:
    def test_parse_rule_round_trip(self):
        rule = parse_rule(
            "retry=cusum(sim.read.retry_rounds,rate,k=1,h=6,warmup=4,"
            "empty=skip)"
        )
        assert rule.name == "retry"
        assert rule.detector_kind == "cusum"
        assert rule.signal == "rate"
        assert rule.detector_params == {"k": 1.0, "h": 6.0, "warmup": 4}
        assert isinstance(rule.detector_params["warmup"], int)
        assert rule.empty == "skip"

    @pytest.mark.parametrize(
        "spec",
        [
            "not a rule",
            "x=cusum(sim.a)",  # missing signal
            "x=cusum(sim.a,nope)",  # bad signal
            "x=wavelet(sim.a,sum)",  # bad detector
            "x=cusum(sim.a,sum,empty=maybe)",  # bad empty policy
            "x=cusum(sim.a,sum,h=tall)",  # non-numeric
            "x=cusum(sim.a,sum,oops)",  # malformed param
            "Bad Name=cusum(sim.a,sum)",
        ],
    )
    def test_parse_rule_rejects(self, spec):
        with pytest.raises(ConfigurationError):
            parse_rule(spec)

    def test_value_sums_selector_terms_and_globs(self):
        recorder = WindowedRecorder(window_us=10.0)
        recorder.add("sim.channel.0.gc_us", 1.0, amount=3.0)
        recorder.add("sim.channel.1.gc_us", 2.0, amount=4.0)
        recorder.add("ftl.scrub.refreshed_pages", 3.0, amount=2.0)
        recorder.add("ftl.bbt.retired", 4.0, amount=1.0)
        glob_rule = ChangePointRule(
            "gc", "sim.channel.*.gc_us", "sum", "cusum"
        )
        union_rule = ChangePointRule(
            "decay", "ftl.scrub.refreshed_pages+ftl.bbt.retired", "sum",
            "page_hinkley",
        )
        assert glob_rule.value(recorder, 0) == pytest.approx(7.0)
        assert union_rule.value(recorder, 0) == pytest.approx(3.0)

    def test_rate_signal_normalises_by_window(self):
        recorder = WindowedRecorder(window_us=500.0)
        recorder.add("sim.read.retry_rounds", 0.0, amount=5.0)
        rule = ChangePointRule("r", "sim.read.retry_rounds", "rate", "cusum")
        assert rule.value(recorder, 0) == pytest.approx(5.0 / (500.0 / 1e6))

    def test_empty_skip_policy_feeds_nothing(self):
        recorder = WindowedRecorder(window_us=10.0)
        recorder.add("sim.response_us", 25.0, amount=100.0)  # window 2 only
        rule = ChangePointRule(
            "lat", "sim.response_us", "mean", "cusum", empty="skip"
        )
        assert rule.observe(recorder, 0) is None
        assert rule.observe(recorder, 1) is None
        assert rule._detector.n_observations == 0
        rule.observe(recorder, 2)
        assert rule._detector.n_observations == 1

    def test_default_rules_unique_and_serialisable(self):
        rules = default_rules()
        names = [rule.name for rule in rules]
        assert len(names) == len(set(names))
        for rule in rules:
            json.dumps(rule.to_dict())


class TestBurnRate:
    PAIR = (("p", 2, 4, 2.0),)

    def test_fires_only_when_both_windows_exceed(self):
        rule = BurnRateRule(
            "b", slo_target=0.9, pairs=self.PAIR, min_total=4.0
        )
        for _ in range(4):
            assert rule.update(0.0, 10.0) == []
        # Fast window hot (0.25/0.1 = 2.5x) but slow still diluted.
        assert rule.update(5.0, 10.0) == []
        # Both exceed: fast 5.0x, slow 2.5x.
        (alarm,) = rule.update(5.0, 10.0)
        assert alarm.pair == "p"
        assert alarm.fast_burn > alarm.threshold
        assert alarm.slow_burn > alarm.threshold

    def test_rising_edge_hysteresis(self):
        rule = BurnRateRule(
            "b", slo_target=0.9, pairs=self.PAIR, min_total=4.0
        )
        fired = []
        for bad in [0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 5.0, 5.0]:
            fired.extend(rule.update(bad, 10.0))
        # One alarm for the first sustained burn, one after recovery.
        assert len(fired) == 2

    def test_min_total_gates_noise(self):
        rule = BurnRateRule(
            "b", slo_target=0.9, pairs=self.PAIR, min_total=100.0
        )
        assert all(rule.update(1.0, 1.0) == [] for _ in range(20))

    def test_tail_source_classifies_windows(self):
        recorder = WindowedRecorder(window_us=10.0)
        recorder.sample("sim.response_us", 5.0, 50.0)
        recorder.sample("sim.response_us", 15.0, 500.0)
        source = TailBurnSource(slo_us=100.0)
        assert source.bad_total(recorder, 0) == (0.0, 1.0)
        assert source.bad_total(recorder, 1) == (1.0, 1.0)
        assert source.bad_total(recorder, 7) == (0.0, 0.0)
        with pytest.raises(ConfigurationError):
            TailBurnSource(slo_us=0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule("b", slo_target=1.5)
        with pytest.raises(ConfigurationError):
            BurnRateRule("b", pairs=(("p", 4, 2, 1.0),))
        with pytest.raises(ConfigurationError):
            BurnRateRule("b", pairs=(("p", 2, 4, 0.0),))


def synthetic_monitor(**config_kw):
    """A monitor over a hand-fed recorder (no engine)."""
    recorder = WindowedRecorder(window_us=10.0)
    registry = MetricsRegistry()
    monitor = HealthMonitor(
        recorder,
        registry=registry,
        rules=[
            parse_rule("spike=cusum(sim.x,sum,k=0.5,h=8,warmup=4)")
        ],
        config=MonitorConfig(**config_kw),
    ).attach()
    return recorder, registry, monitor


class TestHealthMonitor:
    def test_alerts_on_hand_fed_step(self):
        recorder, registry, monitor = synthetic_monitor()
        for i in range(6):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=1.0)
        for i in range(6, 12):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=50.0)
        recorder.flush()
        assert monitor.windows_closed == 12
        assert monitor.n_alerts >= 1
        alert = monitor.alerts[0]
        assert alert.kind == "change_point"
        assert alert.rule == "spike"
        assert alert.blame is None  # no tracer attached
        snapshot = registry.snapshot()
        assert snapshot["monitor.windows"] == 12.0
        assert snapshot["monitor.alerts.total"] == float(monitor.n_alerts)
        assert snapshot["monitor.last_alert_window"] == float(alert.window)

    def test_tail_burn_alerting_on_plain_sim_series(self):
        recorder = WindowedRecorder(window_us=10.0)
        monitor = HealthMonitor(
            recorder, rules=[], config=MonitorConfig(slo_us=100.0)
        ).attach()
        for i in range(40):
            recorder.sample("sim.response_us", i * 10.0 + 5.0, 50.0)
        for i in range(40, 80):
            recorder.sample("sim.response_us", i * 10.0 + 5.0, 500.0)
        recorder.flush()
        assert any(a.kind == "burn_rate" for a in monitor.alerts)
        assert all(a.rule.startswith("burn.tail.") for a in monitor.alerts)

    def test_duplicate_rule_names_rejected(self):
        recorder = WindowedRecorder()
        rules = [
            parse_rule("x=cusum(sim.a,sum)"),
            parse_rule("x=cusum(sim.b,sum)"),
        ]
        with pytest.raises(ConfigurationError):
            HealthMonitor(recorder, rules=rules)

    def test_max_alerts_caps_retention_not_counting(self):
        recorder, _, monitor = synthetic_monitor(max_alerts=1)
        for i in range(6):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=1.0)
        # A staircase: each 12-window tread gives the re-armed detector
        # room to recalibrate before the next upward step fires it again.
        for i in range(6, 126):
            amount = 50.0 * (1 + (i - 6) // 12)
            recorder.add("sim.x", i * 10.0 + 5.0, amount=amount)
        recorder.flush()
        assert monitor.n_alerts > 1
        assert len(monitor.alerts) == 1
        assert monitor.to_dict()["n_alerts"] == monitor.n_alerts

    def test_tty_status_view(self):
        recorder, _, monitor = synthetic_monitor()
        stream = io.StringIO()
        view = TtyStatusView(stream)
        monitor.add_observer(view)
        for i in range(6):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=1.0)
        for i in range(6, 12):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=50.0)
        recorder.flush()
        view.finish()
        text = stream.getvalue()
        assert "[alert #1]" in text
        assert "window 11" in text
        assert text.endswith("\n")

    def test_jsonl_stream_schema(self, tmp_path):
        recorder, _, monitor = synthetic_monitor()
        for i in range(6):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=1.0)
        for i in range(6, 12):
            recorder.add("sim.x", i * 10.0 + 5.0, amount=50.0)
        recorder.flush()
        path = tmp_path / "alerts.jsonl"
        monitor.write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["event"] == "header"
        assert lines[0]["schema"] == "repro.monitor/1"
        assert [line["event"] for line in lines[1:-1]] == ["alert"] * (
            len(lines) - 2
        )
        summary = lines[-1]
        assert summary["event"] == "summary"
        assert summary["n_alerts"] == monitor.n_alerts
        assert summary["fingerprint"] == monitor_fingerprint(
            monitor.to_dict()
        )

    def test_fingerprint_ignores_stamp_and_tracks_content(self):
        recorder, _, monitor = synthetic_monitor()
        recorder.add("sim.x", 5.0)
        recorder.flush()
        body = monitor.to_dict()
        stamped = dict(body)
        stamped["fingerprint"] = monitor_fingerprint(body)
        assert monitor_fingerprint(stamped) == monitor_fingerprint(body)
        mutated = dict(body)
        mutated["n_alerts"] = 99
        assert monitor_fingerprint(mutated) != monitor_fingerprint(body)


def mixed_trace(n=600, period_us=400.0):
    return [
        TraceRecord(i * period_us, (i * 7) % 80, 1 + i % 3, i % 4 == 0)
        for i in range(n)
    ]


def run_des(monitored=True, fault_scale=None, pe=16000.0, n=600):
    from repro.faults import FaultConfig, FaultInjector
    from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel, observe

    ssd = SsdConfig(
        n_blocks=64,
        pages_per_block=16,
        gc_free_block_threshold=2,
        initial_pe_cycles=pe,
    )
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    injector = None
    if fault_scale is not None:
        injector = FaultInjector(FaultConfig(enabled=True).scaled(fault_scale))
    system = build_system("flexlevel", config, fault_injector=injector)
    tracer = Tracer(sample_every=1, keep_slowest=0)
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=500.0)
    monitor = None
    if monitored:
        monitor = HealthMonitor(
            recorder,
            registry=registry,
            tracer=tracer,
            config=MonitorConfig(warmup_windows=4),
        ).attach()
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.0,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
        observers=observe(registry=registry, tracer=tracer, recorder=recorder),
    )
    result = engine.run(mixed_trace(n), "t")
    return result, recorder, monitor


class TestEndToEnd:
    def test_attach_leaves_simulation_byte_identical(self):
        plain, plain_rec, _ = run_des(monitored=False, fault_scale=200.0)
        mon, mon_rec, monitor = run_des(monitored=True, fault_scale=200.0)
        assert monitor.n_alerts > 0  # the monitor did real work
        assert json.dumps(plain.summary(), sort_keys=True) == json.dumps(
            mon.summary(), sort_keys=True
        )
        assert json.dumps(plain_rec.to_dict(), sort_keys=True) == json.dumps(
            mon_rec.to_dict(), sort_keys=True
        )

    def test_artifact_and_fingerprint_deterministic(self):
        dumps = []
        for _ in range(2):
            _, _, monitor = run_des(fault_scale=200.0)
            body = monitor.to_dict()
            dumps.append(
                (json.dumps(body, sort_keys=True), monitor_fingerprint(body))
            )
        assert dumps[0] == dumps[1]

    def test_fault_run_alerts_clean_run_fault_silent(self):
        _, _, faulty = run_des(fault_scale=200.0)
        _, _, clean = run_des(fault_scale=None, pe=0.0)
        fault_rules = {"uncorrectable", "degraded", "retry_rate"}
        assert {a.rule for a in faulty.alerts} & fault_rules
        assert not {a.rule for a in clean.alerts} & fault_rules
        assert clean.n_alerts < faulty.n_alerts

    def test_alert_blame_fractions_sum_to_one(self):
        _, _, monitor = run_des(fault_scale=200.0)
        checked = 0
        for alert in monitor.alerts:
            blame = alert.blame
            assert blame is not None
            if blame["basis"] == "none":
                continue
            assert blame["n_requests"] > 0
            assert sum(blame["blame_fraction"].values()) == pytest.approx(
                1.0, rel=1e-9
            )
            checked += 1
        assert checked > 0

    def test_window_restricted_blame_matches_span_subset(self):
        _, _, monitor = run_des(fault_scale=200.0)
        windowed = [
            a for a in monitor.alerts if a.blame["basis"] == "window"
        ]
        assert windowed
        for alert in windowed:
            assert alert.blame["start_us"] == alert.start_us
            assert alert.blame["end_us"] == alert.end_us


class TestPrometheusExport:
    def test_name_mapping(self):
        assert (
            prometheus_name("sim.read.retry_rounds")
            == "repro_sim_read_retry_rounds"
        )

    def test_exposition_covers_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("sim.arrivals").inc(3)
        registry.gauge("sim.depth").set(2.5)
        hist = registry.histogram("sim.response_us")
        for v in (100.0, 200.0, 400.0):
            hist.observe(v)
        text = prometheus_text(registry)
        assert "# TYPE repro_sim_arrivals counter" in text
        assert "repro_sim_arrivals 3" in text
        assert "# TYPE repro_sim_depth gauge" in text
        assert "repro_sim_depth 2.5" in text
        assert "# TYPE repro_sim_response_us summary" in text
        assert 'repro_sim_response_us{quantile="0.99"}' in text
        assert "repro_sim_response_us_count 3" in text
        assert text.endswith("\n")

    def test_exposition_deterministic_and_sorted(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z.last").inc()
            registry.gauge("a.first").set(1.0)
            return prometheus_text(registry)

        text = build()
        assert text == build()
        assert text.index("repro_a_first") < text.index("repro_z_last")

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_metric_kind(self):
        registry = MetricsRegistry()
        assert metric_kind(registry.counter("a")) == "counter"
        assert metric_kind(registry.gauge("b")) == "gauge"
        assert metric_kind(registry.histogram("c")) == "histogram"


class TestTerminalDegradedAlert:
    """The flush-time degraded verdict: delivered even when the run was
    cut before the final window closed (crashes, truncation)."""

    def test_degraded_run_emits_exactly_one_terminal_alert(self):
        recorder, _, monitor = synthetic_monitor()
        for i in range(5):
            recorder.sample("ftl.degraded.read_only", i * 10.0 + 5.0, 0.0)
        # The drive goes read-only mid-window; the run is cut before
        # another window would have closed.
        recorder.sample("ftl.degraded.read_only", 55.0, 1.0)
        recorder.flush()
        terminal = [a for a in monitor.alerts if a.kind == "degraded"]
        assert len(terminal) == 1
        alert = terminal[0]
        assert alert.rule == "terminal.degraded"
        assert alert.severity == "page"
        assert alert.evidence["series"] == "ftl.degraded.read_only"
        assert alert.evidence["first_degraded_window"] == 5

    def test_flush_is_idempotent(self):
        recorder, _, monitor = synthetic_monitor()
        recorder.sample("sim.degraded.read_only", 5.0, 1.0)
        recorder.flush()
        recorder.flush()
        assert (
            sum(1 for a in monitor.alerts if a.kind == "degraded") == 1
        )

    def test_healthy_run_stays_silent(self):
        recorder, _, monitor = synthetic_monitor()
        for i in range(10):
            recorder.sample("ftl.degraded.read_only", i * 10.0 + 5.0, 0.0)
        recorder.flush()
        assert not [a for a in monitor.alerts if a.kind == "degraded"]

    def test_end_to_end_read_only_device_flags_at_flush(self):
        """An accelerated program-fail recipe exhausts spares and trips
        read-only; the terminal alert must surface it even if the
        change-point rules missed the final partial window."""
        from repro.faults import FaultConfig, FaultInjector
        from repro.sim import DesSimulationEngine, observe

        ssd = SsdConfig(
            n_blocks=64, pages_per_block=16, gc_free_block_threshold=2
        )
        config = SystemConfig(
            ssd=ssd,
            footprint_pages=int(ssd.logical_pages * 0.4),
            buffer_pages=16,
        )
        injector = FaultInjector(
            FaultConfig(
                enabled=True,
                program_fail_base=0.05,
                spare_block_fraction=0.02,
                initial_bad_block_rate=0.0,
                scrub_enabled=False,
            )
        )
        system = build_system("flexlevel", config, fault_injector=injector)
        recorder = WindowedRecorder(window_us=500.0)
        monitor = HealthMonitor(
            recorder, config=MonitorConfig(warmup_windows=4)
        ).attach()
        trace = [
            TraceRecord(i * 200.0, (i * 13) % 100, 1, True) for i in range(600)
        ]
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.0,
            n_channels=4,
            observers=observe(recorder=recorder),
        )
        engine.run(trace, "t")
        recorder.flush()
        assert system.ssd.read_only
        terminal = [a for a in monitor.alerts if a.kind == "degraded"]
        assert len(terminal) == 1


class TestRecoveryRule:
    def test_single_recovery_event_trips_the_stock_rule(self):
        recorder = WindowedRecorder(window_us=10.0)
        monitor = HealthMonitor(
            recorder, rules=default_rules(), config=MonitorConfig()
        ).attach()
        recorder.add("ftl.recovery.events", 105.0)
        recorder.flush()
        assert any(a.rule == "recovery" for a in monitor.alerts)

    def test_crash_free_run_never_trips_recovery(self):
        recorder = WindowedRecorder(window_us=10.0)
        monitor = HealthMonitor(
            recorder, rules=default_rules(), config=MonitorConfig()
        ).attach()
        for i in range(30):
            recorder.add("sim.arrivals", i * 10.0 + 5.0)
        recorder.flush()
        assert not any(a.rule == "recovery" for a in monitor.alerts)
