"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.traces import SyntheticWorkload, write_trace_csv


class TestCli:
    def test_simulate_runs(self, capsys):
        code = main(["simulate", "fin-2", "--requests", "1500", "--blocks", "128"])
        captured = capsys.readouterr()
        assert code == 0
        for name in ("baseline", "ldpc-in-ssd", "flexlevel"):
            assert name in captured.out

    def test_simulate_rejects_unknown_workload(self, capsys):
        assert main(["simulate", "nope", "--requests", "10"]) == 2

    def test_profile_trace(self, tmp_path, capsys):
        workload = SyntheticWorkload(
            name="cli", footprint_pages=500, read_fraction=0.6
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, workload.generate(300, seed=1))
        assert main(["profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert "read_fraction" in captured.out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["trace"],
            ["explain"],
            ["crash"],
            ["channel"],
            ["monitor"],
            ["profile"],
            ["metrics", "ls"],
        ],
        ids=lambda command: command[0],
    )
    def test_unknown_engine_exits_nonzero(self, command, capsys):
        """There is one engine: ``--engine`` is no option of any command."""
        argv = [*command, "fin-2", "--engine", "des", "--requests", "10"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code != 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "fin-2"],
            ["crash", "fin-2", "--at-us", "1000"],
            ["profile", "fin-2"],
            ["explain", "fin-2"],
            ["monitor", "fin-2"],
            ["serve"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--requests", "50", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["profile", "fin-2", "--collapsed", "stacks.txt"],
                "--collapsed requires --mode sample",
                id="profile-collapsed-without-sample",
            ),
            pytest.param(
                ["profile", "fin-2", "--mode", "alloc", "--top", "-1"],
                "negative allocation-site count",
                id="profile-negative-top",
            ),
            pytest.param(
                ["channel", "fin-2", "--heatmap-width", "0"],
                "--heatmap-width",
                id="channel-heatmap-width-0",
            ),
            pytest.param(
                ["explain", "fin-2", "--vs", "flexlevel"],
                "--vs 'flexlevel'",
                id="explain-vs-itself",
            ),
            pytest.param(
                ["channel", "fin-2", "--vs", "nope"],
                "--vs 'nope'",
                id="channel-vs-unknown",
            ),
            pytest.param(
                ["trace", "fin-2", "--system", "nope"],
                "unknown system 'nope'",
                id="trace-unknown-system",
            ),
            pytest.param(
                ["monitor", "nope"],
                "unknown workload 'nope'",
                id="monitor-unknown-workload",
            ),
        ],
    )
    def test_bad_input_exits_2_and_writes_nothing(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--requests", "50", "--blocks", "64"]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "crash"])
    def test_negative_spo_rate_exits_2(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [command, "fin-2", "--requests", "50", "--spo-rate", "-1"]
        assert main(argv) == 2
        assert "negative SPO rate_per_s" in capsys.readouterr().err


class TestSimulateJson:
    def test_json_rows_and_manifest(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "fin-2",
                "--json",
                "--requests",
                "1200",
                "--blocks",
                "128",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        assert output["workload"] == "fin-2"
        assert output["engine"] == "des"
        systems = [row["system"] for row in output["rows"]]
        assert "baseline" in systems and "flexlevel" in systems
        for row in output["rows"]:
            summary = row["summary"]
            assert summary["n_requests"] > 0
            assert (
                0.0
                < summary["p50_response_us"]
                <= summary["p95_response_us"]
                <= summary["p99_response_us"]
            )
        # The acceptance criterion: --json emits a run manifest.
        manifest_path = tmp_path / "manifest_simulate_fin-2_des.json"
        assert str(manifest_path) == output["manifest"]
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["workload"] == "fin-2"
        assert manifest["seed"] == 1
        assert any(k.startswith("flexlevel.") for k in manifest["metrics"])


class TestTraceCommand:
    def test_chrome_trace_has_nested_read_anatomy(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "fin-2",
                "--requests",
                "1500",
                "--blocks",
                "128",
                "--sample-every",
                "25",
                "--format",
                "both",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        trace = json.loads(out.read_text())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_tid = {}
        for event in complete:
            by_tid.setdefault(event["tid"], []).append(event)

        def contains(events, name, root):
            """Spans with ``name`` nested inside the root's interval."""
            lo, hi = root["ts"], root["ts"] + root["dur"]
            return [
                e
                for e in events
                if e["name"] == name and lo <= e["ts"] and e["ts"] + e["dur"] <= hi + 1e-6
            ]

        # The acceptance criterion: at least one traced read request with
        # queue-wait, >= 1 sensing-round and LDPC-decode spans nested
        # under the request span.
        satisfied = False
        for events in by_tid.values():
            roots = [e for e in events if e["name"] == "read_request"]
            if not roots:
                continue
            root = roots[0]
            if (
                contains(events, "queue_wait", root)
                and len(contains(events, "sensing_round", root)) >= 1
                and contains(events, "ldpc_decode", root)
            ):
                satisfied = True
                break
        assert satisfied

        # JSONL sibling and manifest ride along with --format both.
        jsonl_path = out.with_suffix(".jsonl")
        assert jsonl_path.exists()
        trees = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert trees and all("name" in tree for tree in trees)
        manifest = json.loads((tmp_path / "trace_manifest.json").read_text())
        assert manifest["extra"]["requests_seen"] > 0
        assert manifest["extra"]["traces_kept"] == len(trees)
        assert "sim.read.response_us.p99" in manifest["metrics"]
        # Wall throughput rides along, so slow runs are diagnosable
        # from the manifest alone.
        assert manifest["metrics"]["sim.wall.events_per_s"] > 0
        assert manifest["metrics"]["sim.wall.loop_s"] > 0
        captured = capsys.readouterr()
        assert "traces kept" in captured.out

    def test_trace_rejects_unknown_system(self, capsys):
        assert main(["trace", "fin-2", "--system", "nope", "--requests", "10"]) == 2


class TestExplainCommand:
    def run_explain(self, tmp_path, *extra):
        out = tmp_path / "explain.json"
        code = main(
            [
                "explain",
                "fin-2",
                "--requests",
                "1200",
                "--blocks",
                "128",
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_json_report_artifact(self, tmp_path, capsys):
        code, out = self.run_explain(tmp_path, "--json")
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        artifact = json.loads(out.read_text())
        assert printed == artifact
        report = artifact["report"]
        assert report["n_requests"] > 0
        for band in report["bands"].values():
            if band["n_requests"]:
                assert sum(band["blame_fraction"].values()) == pytest.approx(
                    1.0, rel=1e-9
                )
        assert "sim.arrivals" in artifact["windows"]["series"]
        manifest = json.loads(
            (tmp_path / "explain_manifest.json").read_text()
        )
        assert manifest["extra"]["traces_kept"] == report["n_requests"]
        assert manifest["metrics"]["sim.wall.events_per_s"] > 0

    def test_artifact_bytes_deterministic(self, tmp_path, capsys):
        _, first = self.run_explain(tmp_path)
        first_bytes = first.read_bytes()
        _, second = self.run_explain(tmp_path)
        assert second.read_bytes() == first_bytes

    def test_vs_mode_diffs_systems(self, tmp_path, capsys):
        code, out = self.run_explain(tmp_path, "--vs", "baseline", "--markdown")
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["vs"]["system"] == "baseline"
        diff = artifact["vs"]["diff"]
        assert "total_us_delta" in diff
        assert "all" in diff["bands"]
        assert "vs baseline" in capsys.readouterr().out

    def test_csv_blame_table(self, tmp_path, capsys):
        code, _ = self.run_explain(tmp_path, "--csv")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "band,cause,blame_us,blame_fraction"
        assert any(line.startswith("all,queue_wait,") for line in lines)

    def test_rejects_unknown_and_self_vs(self, capsys):
        assert main(["explain", "nope", "--requests", "10"]) == 2
        assert (
            main(["explain", "fin-2", "--system", "nope", "--requests", "10"])
            == 2
        )
        assert (
            main(
                [
                    "explain",
                    "fin-2",
                    "--vs",
                    "flexlevel",
                    "--requests",
                    "10",
                ]
            )
            == 2
        )


class TestServeCommand:
    def run_serve(self, tmp_path, *extra):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--mix",
                "fin-2:2,fin-2:1:10",
                "--requests",
                "60",
                "--blocks",
                "64",
                "--scheduler",
                "wfq",
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_markdown_report_and_artifact(self, tmp_path, capsys):
        code, out = self.run_serve(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "Multi-tenant serving report" in printed
        assert "| t2 | fin-2 | 10x |" in printed
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.serve/1"
        assert artifact["config"]["scheduler"] == "wfq"
        fleet = artifact["fleet"]
        assert fleet["completed"] == 3 * 60
        assert fleet["submitted"] == fleet["completed"] + fleet["rejected"]
        # Per-tenant blame fractions are exact decompositions.
        for row in artifact["tenants"].values():
            for band in row["attribution"]["bands"].values():
                if band["n_requests"]:
                    assert sum(
                        band["blame_fraction"].values()
                    ) == pytest.approx(1.0, rel=1e-9)
        assert "serve.tenant.t0.completions" in artifact["windows"]["series"]
        manifest = json.loads(
            (tmp_path / "serve_manifest.json").read_text()
        )
        assert manifest["config"]["mix"] == "fin-2:2,fin-2:1:10"
        assert manifest["extra"]["tenants"] == 3
        assert "serve.fleet.response_us.p99" in manifest["metrics"]

    def test_json_artifact_is_byte_deterministic(self, tmp_path, capsys):
        _, first = self.run_serve(tmp_path, "--json")
        printed = capsys.readouterr().out
        first_bytes = first.read_bytes()
        assert printed.encode() == first_bytes
        _, second = self.run_serve(tmp_path, "--json")
        assert second.read_bytes() == first_bytes

    def test_rejects_unknown_names(self, capsys):
        assert main(["serve", "--mix", "nope:2", "--requests", "10"]) == 2
        assert "unknown workload" in capsys.readouterr().err
        assert (
            main(["serve", "--system", "nope", "--requests", "10"]) == 2
        )
        capsys.readouterr()
        # The channel count is checked before the dispatch window that
        # defaults to twice it, so the error names the channels.
        assert main(["serve", "--channels", "0", "--requests", "10"]) == 2
        err = capsys.readouterr().err
        assert "need at least one channel: 0" in err
        assert "window" not in err
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scheduler", "nope", "--requests", "10"])
        assert excinfo.value.code != 0

    def test_rejects_malformed_mix_with_exit_code(self, capsys):
        assert main(["serve", "--mix", "", "--requests", "10"]) == 2
        assert main(["serve", "--mix", "fin-2:0", "--requests", "10"]) == 2


class TestMonitorCommand:
    def run_monitor(self, tmp_path, *extra, faults=True):
        out = tmp_path / "monitor.json"
        argv = [
            "monitor",
            "fin-2",
            "--requests",
            "800",
            "--blocks",
            "64",
            "--pe",
            "16000",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
        if faults:
            argv += ["--faults", "--fault-scale", "200"]
        code = main(argv + list(extra))
        return code, out

    def test_fault_run_alerts_with_artifacts(self, tmp_path, capsys):
        jsonl = tmp_path / "alerts.jsonl"
        prom = tmp_path / "metrics.prom"
        code, out = self.run_monitor(
            tmp_path, "--jsonl", str(jsonl), "--prom", str(prom)
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "alerts:" in printed
        artifact = json.loads(out.read_text())
        body = artifact["monitor"]
        assert body["schema"] == "repro.monitor/1"
        assert body["n_alerts"] >= 1
        assert body["fingerprint"]
        for alert in body["alerts"]:
            blame = alert["blame"]
            assert blame is not None
            if blame["basis"] != "none":
                assert sum(blame["blame_fraction"].values()) == pytest.approx(
                    1.0, rel=1e-9
                )
        lines = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert lines[0]["event"] == "header"
        assert lines[-1]["event"] == "summary"
        assert lines[-1]["fingerprint"] == body["fingerprint"]
        text = prom.read_text()
        assert "# TYPE repro_ecc_ldpc_decode_rounds counter" in text
        assert "# TYPE repro_sim_write_response_us summary" in text
        assert "# TYPE repro_monitor_windows counter" in text
        manifest = json.loads(
            (tmp_path / "monitor_manifest.json").read_text()
        )
        assert manifest["extra"]["alerts"] == body["n_alerts"]
        assert str(jsonl) in manifest["extra"]["artifacts"]

    def test_fail_on_alert_gates_exit_code(self, tmp_path, capsys):
        code, _ = self.run_monitor(tmp_path, "--fail-on-alert")
        assert code == 1
        code, out = self.run_monitor(
            tmp_path, "--fail-on-alert", "--pe", "0", faults=False
        )
        assert code == 0
        assert json.loads(out.read_text())["monitor"]["n_alerts"] == 0

    def test_artifact_is_deterministic(self, tmp_path):
        _, first = self.run_monitor(tmp_path)
        first_bytes = first.read_bytes()
        _, second = self.run_monitor(tmp_path)
        assert second.read_bytes() == first_bytes

    def test_custom_rule_replaces_stock_set(self, tmp_path, capsys):
        code, out = self.run_monitor(
            tmp_path,
            "--rule",
            "uncorr=cusum(sim.uncorrectable.reads,sum,k=0.25,h=4)",
            "--json",
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        rules = artifact["monitor"]["rules"]
        assert [rule["name"] for rule in rules] == ["uncorr"]

    def test_rejects_unknown_names_and_bad_rules(self, capsys):
        assert main(["monitor", "nope", "--requests", "10"]) == 2
        assert (
            main(["monitor", "fin-2", "--system", "nope", "--requests", "10"])
            == 2
        )
        assert (
            main(
                [
                    "monitor",
                    "fin-2",
                    "--requests",
                    "200",
                    "--blocks",
                    "64",
                    "--rule",
                    "broken",
                ]
            )
            == 2
        )


class TestMetricsCommand:
    ARGS = ["metrics", "ls", "fin-2", "--requests", "400", "--blocks", "64"]

    def test_ls_dumps_typed_namespace(self, capsys):
        assert main(self.ARGS) == 0
        printed = capsys.readouterr().out
        assert "# registry instruments" in printed
        assert "# windowed series" in printed
        assert "counter" in printed
        assert "gauge" in printed
        assert "histogram" in printed
        lines = printed.splitlines()
        windowed = [
            line.split()[0]
            for line in lines
            if line.endswith("windowed")
        ]
        assert "sim.response_us" in windowed
        assert "monitor.windows" in printed

    def test_ls_json(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        kinds = {row["kind"] for row in listing["metrics"]}
        assert kinds >= {"counter", "gauge"}
        names = [row["name"] for row in listing["windowed_series"]]
        assert names == sorted(names)

    def test_rejects_unknown_workload(self, capsys):
        assert main(["metrics", "ls", "nope", "--requests", "10"]) == 2


class TestServeMonitorFlag:
    def test_monitor_section_and_sidecars(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        jsonl = tmp_path / "serve_alerts.jsonl"
        prom = tmp_path / "serve_metrics.prom"
        code = main(
            [
                "serve",
                "--mix",
                "fin-2:1,fin-2:1:200",
                "--requests",
                "120",
                "--blocks",
                "64",
                "--sq-depth",
                "4",
                "--seed",
                "3",
                "--monitor-jsonl",  # implies --monitor
                str(jsonl),
                "--monitor-prom",
                str(prom),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "- monitor:" in printed
        artifact = json.loads(out.read_text())
        body = artifact["monitor"]
        assert body["schema"] == "repro.monitor/1"
        assert any(
            rule["name"].startswith("burn.t") for rule in body["burn_rules"]
        )
        assert jsonl.read_text().splitlines()
        assert "repro_serve_tenant_t0_completed" in prom.read_text()

    def test_unmonitored_serve_has_no_monitor_section(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--mix",
                "fin-2:1",
                "--requests",
                "40",
                "--blocks",
                "64",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "monitor" not in json.loads(out.read_text())


class TestProfileWorkload:
    def run_profile(self, tmp_path, *extra):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "fin-2",
                "--requests",
                "1200",
                "--blocks",
                "128",
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_instrument_artifact_and_manifest(self, tmp_path, capsys):
        code, out = self.run_profile(tmp_path, "--json")
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.profile/1"
        assert artifact["mode"] == "instrument"
        loop = artifact["wall"]["loop"]
        assert loop["events"] > 0 and loop["events_per_s"] > 0
        # Reconciliation: attributed + unattributed == loop wall, with
        # the residual inside the calibrated overhead budget.
        assert loop["attributed_s"] + loop["unattributed_s"] == pytest.approx(
            loop["wall_s"]
        )
        assert loop["unattributed_s"] <= loop["self_overhead_s"] + 0.05
        manifest = json.loads(
            (tmp_path / "profile_manifest.json").read_text()
        )
        assert manifest["metrics"]["sim.wall.events_per_s"] > 0
        assert manifest["extra"]["fingerprint"] == artifact["fingerprint"]
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed == artifact

    def test_sample_mode_writes_parseable_collapsed(self, tmp_path, capsys):
        from repro.obs.profile import parse_collapsed

        stacks = tmp_path / "stacks.txt"
        code, out = self.run_profile(
            tmp_path,
            "--mode",
            "sample",
            "--hz",
            "499",
            "--collapsed",
            str(stacks),
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["mode"] == "sample"
        lines = stacks.read_text().splitlines()
        assert lines == artifact["wall"]["sampler"]["collapsed"]
        parse_collapsed(lines)

    def test_alloc_mode_records_peak_in_manifest(self, tmp_path, capsys):
        code, out = self.run_profile(tmp_path, "--mode", "alloc", "--top", "5")
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["wall"]["alloc"]["peak_kb"] > 0
        assert len(artifact["wall"]["alloc"]["top"]) <= 5
        manifest = json.loads(
            (tmp_path / "profile_manifest.json").read_text()
        )
        assert isinstance(manifest["peak_py_alloc_kb"], int)
        assert manifest["peak_py_alloc_kb"] > 0

    def test_fingerprint_stable_across_runs(self, tmp_path, capsys):
        _, first = self.run_profile(tmp_path)
        fingerprint = json.loads(first.read_text())["fingerprint"]
        _, second = self.run_profile(tmp_path)
        assert json.loads(second.read_text())["fingerprint"] == fingerprint

    def test_collapsed_requires_sample_mode(self, tmp_path, capsys):
        code, _ = self.run_profile(
            tmp_path, "--collapsed", str(tmp_path / "stacks.txt")
        )
        assert code == 2
        assert "--mode sample" in capsys.readouterr().err

    def test_rejects_unknown_workload(self, capsys):
        assert main(["profile", "nope", "--requests", "10"]) == 2


class TestChannelCommand:
    def run_channel(self, tmp_path, *extra, capsys=None):
        out = tmp_path / "channel.json"
        argv = [
            "channel", "fin-2", "--requests", "600", "--blocks", "64",
            "--out", str(out),
        ]
        code = main(argv + list(extra))
        return code, out

    def test_artifact_schema_and_fingerprint(self, tmp_path, capsys):
        code, out = self.run_channel(tmp_path, "--json")
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["channel"]["schema"] == "repro.channel/1"
        assert artifact["fingerprint"] == artifact["channel"]["fingerprint"]
        assert artifact["channel"]["totals"]["reads"] > 0
        assert artifact["channel"]["modes"]
        printed = json.loads(capsys.readouterr().out)
        assert printed["fingerprint"] == artifact["fingerprint"]
        manifest = json.loads(
            (tmp_path / "channel_manifest.json").read_text()
        )
        assert manifest["command"] == "repro channel"

    def test_artifact_bytes_deterministic(self, tmp_path, capsys):
        _, first = self.run_channel(tmp_path)
        first_bytes = first.read_text()
        _, second = self.run_channel(tmp_path)
        assert second.read_text() == first_bytes

    def test_text_report_has_heatmap_and_modes(self, tmp_path, capsys):
        code, _ = self.run_channel(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "read-channel telemetry" in printed
        assert "analytic" in printed
        assert "heatmap" in printed

    def test_vs_mode_embeds_diff(self, tmp_path, capsys):
        code, out = self.run_channel(tmp_path, "--vs", "baseline", "--markdown")
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["vs"]["system"] == "baseline"
        assert artifact["vs"]["diff"]["schema"] == "repro.channel-diff/1"
        assert "sensing" in capsys.readouterr().out.lower()

    def test_rejects_unknown_names_and_self_vs(self, capsys):
        assert main(["channel", "nope", "--requests", "10"]) == 2
        assert (
            main(["channel", "fin-2", "--system", "nope", "--requests", "10"])
            == 2
        )
        assert (
            main(
                [
                    "channel", "fin-2", "--system", "flexlevel",
                    "--vs", "flexlevel", "--requests", "10",
                ]
            )
            == 2
        )


class TestMetricsListsChannelSeries:
    def test_channel_series_and_instruments_listed(self, capsys):
        assert (
            main(["metrics", "ls", "fin-2", "--requests", "400", "--blocks", "64"])
            == 0
        )
        printed = capsys.readouterr().out
        lines = printed.splitlines()
        windowed = [
            line.split()[0] for line in lines if line.endswith("windowed")
        ]
        assert "channel.observed_errors" in windowed
        assert "channel.sensing.levels" in windowed
        assert "channel.sensing.escalations" in windowed
        instruments = [line.split()[0] for line in lines]
        assert "channel.reads" in instruments
