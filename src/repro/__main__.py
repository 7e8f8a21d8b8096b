"""Command-line entry point: ``python -m repro <command>``.

``report`` writes the reproduction report; ``simulate`` compares the
four storage systems on one paper workload.  ``crash`` (power-cut
drill), ``trace`` (sampled span trees), ``explain`` (latency blame per
percentile band), ``channel`` (media telemetry), ``monitor`` (online
health alerts), ``metrics ls`` (the metric namespace) and ``profile``
(wall-clock profile) replay one system on one workload's seeded trace;
``serve`` replays a multi-tenant mix under a QoS scheduler.  Each
replay is built by :class:`repro.sim.replay.Replay` from the shared run
arguments (``serve`` takes its drive and system from it); a command
that writes an artifact puts a ``<stem>_manifest.json`` run manifest
beside it.  ``<command> --help`` lists the options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import main as report_main

    forwarded = []
    if args.fast:
        forwarded.append("--fast")
    if args.output:
        forwarded.extend(["--output", args.output])
    if args.manifest:
        forwarded.extend(["--manifest", args.manifest])
    return report_main(forwarded)


def _replay(args: argparse.Namespace):
    """The :class:`~repro.sim.replay.Replay` the run arguments describe."""
    from repro.faults import FaultConfig
    from repro.sim.replay import Replay

    faults = None
    if args.faults:
        faults = FaultConfig(enabled=True, seed=args.fault_seed).scaled(
            args.fault_scale
        )
    return Replay(
        args.workload,
        args.requests,
        blocks=args.blocks,
        pe=args.pe,
        seed=args.seed,
        channels=args.channels,
        retry=not args.no_retry,
        warmup_fraction=args.warmup_fraction,
        faults=faults,
    )


def _check_vs(args: argparse.Namespace) -> None:
    """``--vs`` must name a known system other than ``--system``.

    Checked before the first replay, so a bad name costs no run.
    """
    from repro.baselines import system_names
    from repro.errors import ConfigurationError

    others = [name for name in system_names() if name != args.system]
    if args.vs is not None and args.vs not in others:
        raise ConfigurationError(
            f"--vs {args.vs!r} must name a system other than "
            f"{args.system!r}; choose from {others}"
        )


def _out_path(args: argparse.Namespace) -> Path:
    """``--out``, else the command's default name filled in from ``args``."""
    return Path(args.out or args.default_out.format(**vars(args)))


def _write_artifact(
    args: argparse.Namespace,
    artifact: dict,
    builder,
    render,
    *,
    noun: str,
    metrics: dict,
    side_files: tuple[str, ...] | list[str] = (),
    peak_py_alloc_kb: int | None = None,
    **extra,
) -> None:
    """Write a command's artifact and its manifest sidecar, then show it.

    The artifact is sort-keyed, indented JSON at :func:`_out_path`; the
    manifest (``builder`` finished with ``metrics`` and ``extra``) lands
    beside it as ``<stem>_manifest.json`` and lists ``side_files``, which
    the command has already written, after it.  stdout gets the artifact
    itself under ``--json``, else ``render(artifact)``; stderr gets the
    written paths.  ``peak_py_alloc_kb`` replaces the manifest's own
    reading when tracemalloc stopped before the manifest was finished.
    """
    out = _out_path(args)
    text = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    out.write_text(text)
    manifest = builder.finish(
        metrics=metrics, artifacts=[str(out), *side_files], **extra
    )
    if peak_py_alloc_kb is not None:
        import dataclasses

        manifest = dataclasses.replace(
            manifest, peak_py_alloc_kb=peak_py_alloc_kb
        )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text, end="")
    else:
        print(render(artifact))
    print(f"{noun} written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)


def _write_monitor_files(monitor, registry, jsonl, prom) -> list[str]:
    """Write the alert stream and metrics snapshot asked for; their paths.

    ``monitor`` is None on an unmonitored run, which has no alert stream.
    """
    from repro.obs.monitor import write_prometheus

    written = []
    if jsonl and monitor is not None:
        monitor.write_jsonl(jsonl)
        written.append(jsonl)
        print(f"alert stream written to {jsonl}", file=sys.stderr)
    if prom:
        write_prometheus(registry, prom)
        written.append(prom)
        print(f"prometheus snapshot written to {prom}", file=sys.stderr)
    return written


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.baselines import system_names
    from repro.core.level_adjust import LevelAdjustPolicy
    from repro.obs import MetricsRegistry

    run = _replay(args)
    # One policy shared by the four systems (its BER cache counters
    # land in every system's stats).
    policy = LevelAdjustPolicy()
    power = None
    if args.spo_rate != 0.0:
        from repro.faults import PowerConfig

        power = PowerConfig(
            enabled=True, seed=args.spo_seed, rate_per_s=args.spo_rate
        )
    builder = run.begin(
        "repro simulate", **({} if power is None else {"spo": power.to_dict()})
    )
    rows = []
    json_rows = []
    manifest_metrics: dict[str, float] = {}
    for name in system_names():
        registry = MetricsRegistry() if args.json else None
        crash_run = None
        if power is not None:
            crash_run = run.with_crashes(name, power, registry=registry)
            system = crash_run.final_system
            result = crash_run.final
        else:
            engine = run.engine(name, policy, registry=registry)
            system = engine.system
            result = engine.run(run.trace, args.workload)
        percentiles = result.percentiles()
        utilization = result.channel_utilization()
        row = [
            name,
            result.mean_response_us(),
            percentiles["p50_response_us"],
            percentiles["p95_response_us"],
            percentiles["p99_response_us"],
            sum(utilization) / len(utilization),
            result.stats["mean_extra_levels"],
            result.stats["write_amplification"],
            int(result.stats["erase_blocks"]),
        ]
        if crash_run is not None:
            recovery_us = sum(r.recovery_time_us for r in crash_run.reports)
            row += [crash_run.crashes, recovery_us]
        if run.faults is not None:
            row += [
                result.uncorrectable_reads,
                int(system.ssd.stats.blocks_retired),
                "yes" if system.ssd.read_only else "no",
            ]
        rows.append(tuple(row))
        if args.json:
            json_row = {"system": name, "summary": result.summary()}
            if crash_run is not None:
                json_row["crash"] = {
                    "crashes": crash_run.crashes,
                    "recovery_time_us": recovery_us,
                    "fingerprint": crash_run.to_dict()["fingerprint"],
                }
            json_rows.append(json_row)
            manifest_metrics.update(
                {f"{name}.{k}": v for k, v in registry.snapshot().items()}
            )
    if args.json:
        manifest = builder.finish(
            metrics=manifest_metrics, systems=[r["system"] for r in json_rows]
        )
        # The "des" name part and "engine" key are constants that keep
        # the output paths and JSON layout unchanged.
        manifest_path = manifest.write(
            Path(args.out_dir) / f"manifest_simulate_{args.workload}_des.json"
        )
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "engine": "des",
                    "n_channels": args.channels,
                    "rows": json_rows,
                    "manifest": str(manifest_path),
                },
                indent=2,
            )
        )
        return 0
    headers = [
        "system", "mean response (us)", "p50", "p95", "p99", "mean util",
        "extra levels", "WA", "erases",
    ]
    if power is not None:
        headers += ["crashes", "recovery us"]
    if run.faults is not None:
        headers += ["uncorr", "retired", "read-only"]
    print(format_table(headers, rows))
    return 0


def _crash_text(body: dict) -> str:
    """Human-readable summary of one ``repro/crash-run/v1`` artifact."""
    lines = [
        f"crash drill: {body['workload']} on {body['system']}, "
        f"{body['crashes']} crash(es), "
        f"fingerprint {body['fingerprint']}"
    ]
    for i, cycle in enumerate(body["cycles"]):
        if not cycle["crashed"]:
            lines.append(
                f"  leg {i}: ran to completion "
                f"({cycle['n_requests']} requests)"
            )
            continue
        rec = cycle["recovery"]
        report = rec["report"]
        lines.append(
            f"  leg {i}: power cut at {cycle['crash_us'] / 1000.0:.1f} ms "
            f"({cycle['aborted_requests']} in-flight aborted)"
        )
        lines.append(
            f"    remount[{report['strategy']}]: "
            f"{report['recovery_time_us'] / 1000.0:.1f} ms — "
            f"{report['journal_replayed']} journal entries, "
            f"{report['scan_pages_read']} OOB pages, "
            f"{report['torn_pages']} torn, {report['plp_pages']} PLP "
            f"replays, {report['reerased_blocks']} re-erases; "
            f"{rec['live_pages']} live pages, mapping {rec['mapping_digest']}"
        )
    return "\n".join(lines)


def _cmd_crash(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.faults import PowerConfig
    from repro.ftl import RecoveryConfig
    from repro.obs import MetricsRegistry

    if args.at_us is None and args.spo_rate == 0.0:
        raise ConfigurationError(
            "need --at-us or --spo-rate to schedule a power cut"
        )
    run = _replay(args)
    power = PowerConfig(
        enabled=True,
        seed=args.spo_seed,
        at_us=args.at_us,
        rate_per_s=args.spo_rate,
        max_crashes=args.max_crashes,
    )
    builder = run.begin(
        "repro crash",
        system=args.system,
        spo=power.to_dict(),
        resume=args.resume,
        checkpoint_interval_us=args.checkpoint_interval_us,
    )
    registry = MetricsRegistry()
    crash_run = run.with_crashes(
        args.system,
        power,
        recovery=RecoveryConfig(
            checkpoint_interval_us=args.checkpoint_interval_us
        ),
        resume=args.resume,
        registry=registry,
    )
    body = crash_run.to_dict()
    _write_artifact(
        args,
        body,
        builder,
        _crash_text,
        noun="artifact",
        metrics=registry.snapshot(),
        crashes=crash_run.crashes,
        fingerprint=body["fingerprint"],
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, Tracer

    run = _replay(args)
    builder = run.begin("repro trace", system=args.system)
    tracer = Tracer(
        sample_every=args.sample_every, keep_slowest=args.keep_slowest
    )
    registry = MetricsRegistry()
    result = run.replay(args.system, registry=registry, tracer=tracer)

    out = _out_path(args)
    written = []
    if args.format in ("chrome", "both"):
        tracer.write_chrome_trace(out)
        written.append(out)
    if args.format in ("jsonl", "both"):
        jsonl_path = out.with_suffix(".jsonl")
        tracer.write_jsonl(jsonl_path)
        written.append(jsonl_path)
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=[str(path) for path in written],
        traces_kept=len(tracer.spans),
        requests_seen=tracer.n_seen,
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    slowest = tracer.slowest()
    print(f"{len(tracer.spans)} traces kept of {tracer.n_seen} requests")
    if slowest:
        print(
            f"slowest request: {slowest[0].duration_us:.1f} us "
            f"({len(slowest[0].find('sensing_round'))} sensing rounds)"
        )
    print(f"p99 response: {result.percentile_response_us(99):.1f} us")
    for path in written:
        print(f"trace written to {path}")
    print(f"manifest written to {manifest_path}")
    return 0


def _blame_csv(report: dict) -> str:
    """The blame tables as flat CSV rows (band, cause, us, fraction)."""
    lines = ["band,cause,blame_us,blame_fraction"]
    for band, table in report["bands"].items():
        for cause in report["causes"]:
            lines.append(
                f"{band},{cause},{table['blame_us'][cause]:.6f},"
                f"{table['blame_fraction'][cause]:.6f}"
            )
    return "\n".join(lines)


def _blame_markdown(artifact: dict) -> str:
    """The report artifact rendered as a markdown blame table."""
    report = artifact["report"]
    bands = list(report["bands"])
    lines = [
        f"# Latency attribution — {artifact['system']} on "
        f"{artifact['workload']} ({artifact['n_channels']} channels)",
        "",
        f"{report['n_requests']} attributed requests, "
        f"{report['total_us']:.1f} us total latency, "
        f"{report['off_path_us']:.1f} us absorbed by channel parallelism, "
        f"{report['uncorrectable_requests']} uncorrectable.",
        "",
        "Blame fraction by percentile band:",
        "",
        "| cause | " + " | ".join(bands) + " |",
        "|---" * (len(bands) + 1) + "|",
    ]
    for cause in report["causes"]:
        cells = [
            f"{report['bands'][band]['blame_fraction'][cause]:.3f}"
            for band in bands
        ]
        lines.append(f"| {cause} | " + " | ".join(cells) + " |")
    if "vs" in artifact:
        diff = artifact["vs"]["diff"]
        lines += [
            "",
            f"## vs {artifact['vs']['system']} "
            "(blame-fraction delta, all requests)",
            "",
            "| cause | delta |",
            "|---|---|",
        ]
        for cause in report["causes"]:
            delta = diff["bands"]["all"]["blame_fraction_delta"][cause]
            lines.append(f"| {cause} | {delta:+.3f} |")
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import (
        AttributionReport,
        MetricsRegistry,
        Tracer,
        WindowedRecorder,
        diff_reports,
    )

    _check_vs(args)
    run = _replay(args)
    builder = run.begin(
        "repro explain", system=args.system, vs=args.vs, window_us=args.window_us
    )

    def run_one(system_name: str):
        tracer = Tracer(
            sample_every=args.sample_every, keep_slowest=args.keep_slowest
        )
        registry = MetricsRegistry()
        recorder = WindowedRecorder(window_us=args.window_us)
        run.replay(
            system_name, registry=registry, tracer=tracer, recorder=recorder
        )
        report = AttributionReport.from_spans(tracer.spans)
        return tracer, registry, recorder, report

    tracer, registry, recorder, report = run_one(args.system)
    # The report artifact holds only virtual-time quantities, so a
    # fixed seed and config reproduce it byte for byte; wall-clock
    # provenance goes into the separate manifest.
    artifact = {
        "workload": args.workload,
        "system": args.system,
        "engine": "des",
        "n_channels": args.channels,
        "window_us": args.window_us,
        "report": report.to_dict(include_requests=args.include_requests),
        "windows": recorder.to_dict(),
    }
    if args.vs:
        _, _, vs_recorder, vs_report = run_one(args.vs)
        artifact["vs"] = {
            "system": args.vs,
            "report": vs_report.to_dict(),
            "windows": vs_recorder.to_dict(),
            "diff": diff_reports(report, vs_report),
        }
    _write_artifact(
        args,
        artifact,
        builder,
        lambda a: _blame_csv(a["report"]) if args.csv else _blame_markdown(a),
        noun="report",
        metrics=registry.snapshot(),
        traces_kept=len(tracer.spans),
        requests_seen=tracer.n_seen,
    )
    return 0


def _channel_markdown(artifact: dict) -> str:
    """Markdown tables for a ``repro channel`` artifact."""
    payload = artifact["channel"]
    totals = payload["totals"]
    lines = [
        f"# read-channel telemetry: {artifact['system']} "
        f"on {artifact['workload']}",
        "",
        f"- channels: {artifact['n_channels']}",
        f"- fingerprint: `{payload['fingerprint']}`",
        f"- flash reads: {totals['reads']}  "
        f"sensing escalations: {totals['sensing_escalations']}  "
        f"uncorrectable: {totals['uncorrectable']}  "
        f"erases: {totals['erases']}  "
        f"retired blocks: {totals['retired_blocks']}",
        "",
        "| mode | reads | observed BER | analytic BER | rel. err | "
        "retry rounds | uncorrectable |",
        "|---|---|---|---|---|---|---|",
    ]
    for mode, row in payload["modes"].items():
        lines.append(
            f"| {mode} | {row['reads']} | {row['observed_ber']:.3e} | "
            f"{row['analytic_ber']:.3e} | {row['relative_error']:.2%} | "
            f"{row['retry_rounds']} | {row['uncorrectable']} |"
        )
    lines += [
        "",
        "| mode | provisioned levels | reads | mean raw BER |",
        "|---|---|---|---|",
    ]
    for cfg in payload["sensing_configs"]:
        lines.append(
            f"| {cfg['mode']} | {cfg['provisioned_levels']} | "
            f"{cfg['reads']} | {cfg['mean_raw_ber']:.3e} |"
        )
    if "vs" in artifact:
        diff = artifact["vs"]["diff"]
        lines += [
            "",
            f"## vs {artifact['vs']['system']}: sensing-level shares",
            "",
            "| levels | " + artifact["system"] + " | "
            + artifact["vs"]["system"] + " | delta |",
            "|---|---|---|---|",
        ]
        for levels, row in diff["sensing_level_shares"].items():
            lines.append(
                f"| {levels} | {row['left_share']:.1%} | "
                f"{row['right_share']:.1%} | {row['delta']:+.1%} |"
            )
    return "\n".join(lines)


def _channel_text(artifact: dict, metric: str, width: int) -> str:
    """Default TTY view: summary plus the per-block heatmap."""
    import numpy as np

    from repro.obs import render_block_heatmap

    payload = artifact["channel"]
    totals = payload["totals"]
    lines = [
        f"read-channel telemetry: {artifact['system']} on "
        f"{artifact['workload']} ({artifact['n_channels']} channels)",
        f"fingerprint {payload['fingerprint']}  reads {totals['reads']}  "
        f"escalations {totals['sensing_escalations']}  "
        f"uncorrectable {totals['uncorrectable']}  "
        f"erases {totals['erases']}",
    ]
    for mode, row in payload["modes"].items():
        lines.append(
            f"  {mode:<8} reads {row['reads']:>8}  observed "
            f"{row['observed_ber']:.3e}  analytic {row['analytic_ber']:.3e}"
            f"  rel.err {row['relative_error']:.2%}"
        )
    lines.append(f"per-block {metric} heatmap ({width} blocks/row):")
    values = np.zeros(payload["config"]["n_blocks"])
    for entry in payload["blocks"]:
        values[entry["block"]] = entry[metric]
    lines.extend(render_block_heatmap(values, width=width))
    if "vs" in artifact:
        diff = artifact["vs"]["diff"]
        lines.append(
            f"vs {artifact['vs']['system']}: sensing-level share deltas"
        )
        for levels, row in diff["sensing_level_shares"].items():
            lines.append(
                f"  levels {levels}: {row['left_share']:.1%} -> "
                f"{row['right_share']:.1%} ({row['delta']:+.1%})"
            )
    return "\n".join(lines)


def _cmd_channel(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs import (
        ChannelTelemetry,
        MetricsRegistry,
        WindowedRecorder,
        diff_channel_artifacts,
    )

    _check_vs(args)
    if args.heatmap_width < 1:
        raise ConfigurationError(
            f"--heatmap-width must be positive: {args.heatmap_width}"
        )
    run = _replay(args)
    builder = run.begin("repro channel", system=args.system, vs=args.vs)

    def run_one(system_name: str):
        registry = MetricsRegistry()
        telemetry = ChannelTelemetry(
            run.ssd_config.n_blocks,
            page_bits=run.ssd_config.page_size_bytes * 8,
            seed=args.seed,
            trajectory_cap=args.trajectories,
        )
        run.replay(
            system_name,
            registry=registry,
            recorder=WindowedRecorder(window_us=args.window_us),
            channel_telemetry=telemetry,
        )
        return telemetry, registry

    telemetry, registry = run_one(args.system)
    payload = telemetry.to_dict()
    # Wall-free: every field derives from seeded virtual-time state, so
    # a fixed seed and config reproduce the artifact byte for byte.
    artifact = {
        "workload": args.workload,
        "system": args.system,
        "engine": "des",
        "n_channels": args.channels,
        "fingerprint": payload["fingerprint"],
        "channel": payload,
    }
    if args.vs:
        vs_telemetry, _ = run_one(args.vs)
        vs_payload = vs_telemetry.to_dict()
        artifact["vs"] = {
            "system": args.vs,
            "channel": vs_payload,
            "diff": diff_channel_artifacts(payload, vs_payload),
        }
    _write_artifact(
        args,
        artifact,
        builder,
        lambda a: (
            _channel_markdown(a)
            if args.markdown
            else _channel_text(a, args.heatmap_metric, args.heatmap_width)
        ),
        noun="channel artifact",
        metrics=registry.snapshot(),
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import ManifestBuilder, MetricsRegistry, WindowedRecorder
    from repro.obs.monitor import MonitorConfig
    from repro.serve import (
        ServeEngine,
        build_artifact,
        parse_mix,
        per_tenant_reports,
        render_markdown,
    )
    from repro.sim.replay import Replay

    # parse_mix validates workload names in the mix (exit 2 via the
    # top-level ConfigurationError handler).
    specs = parse_mix(
        args.mix,
        n_requests=args.requests,
        slo_us=args.slo_us,
        sq_depth=args.sq_depth,
        n_tenants=args.tenants,
    )
    # No workload: tenants spread their private hot sets across the
    # whole logical space, so the footprint is the full drive.
    run = Replay(
        None,
        args.requests,
        blocks=args.blocks,
        pe=args.pe,
        seed=args.seed,
        channels=args.channels,
    )
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=args.window_us)
    monitored = args.monitor or bool(args.monitor_jsonl or args.monitor_prom)
    engine = ServeEngine(
        run.system(args.system),
        specs,
        seed=args.seed,
        scheduler=args.scheduler,
        n_channels=args.channels,
        window=args.window,
        admission_rate_per_s=args.admission_rate,
        registry=registry,
        recorder=recorder,
        monitor_config=MonitorConfig() if monitored else None,
    )
    run_config = {
        "mix": args.mix,
        "tenants": len(specs),
        "requests": args.requests,
        "scheduler": args.scheduler,
        "system": args.system,
        "blocks": args.blocks,
        "pe": args.pe,
        "seed": args.seed,
        "channels": args.channels,
        "window": engine.window,
        "admission_rate": args.admission_rate,
        "slo_us": args.slo_us,
        "sq_depth": args.sq_depth,
        "window_us": args.window_us,
        "monitor": monitored,
        "crash_us": args.crash_us,
    }
    builder = ManifestBuilder.begin("repro serve", run_config, seed=args.seed)
    result = engine.run(crash_us=args.crash_us)
    reports = per_tenant_reports(result.tracer.spans)
    # The artifact is virtual-time-only: a fixed (seed, mix, scheduler)
    # reproduces it byte for byte.  Wall-clock provenance goes into the
    # separate manifest.
    artifact = build_artifact(
        result, reports, include_requests=args.include_requests
    )
    artifact["windows"] = recorder.to_dict()
    side_files = _write_monitor_files(
        result.monitor, registry, args.monitor_jsonl, args.monitor_prom
    )
    _write_artifact(
        args,
        artifact,
        builder,
        render_markdown,
        noun="report",
        metrics=registry.snapshot(),
        side_files=side_files,
        tenants=len(specs),
        requests_completed=artifact["fleet"]["completed"],
    )
    return 0


def _monitor_text(artifact: dict) -> str:
    """Human-readable summary for one monitored run."""
    body = artifact["monitor"]
    lines = [
        f"monitor {artifact['workload']} on {artifact['system']} "
        f"({artifact['n_channels']} channels, {artifact['requests']} requests, "
        f"seed {artifact['seed']})",
        f"windows closed: {body['windows_closed']} "
        f"(window {body['window_us']:g} us), alerts: {body['n_alerts']}, "
        f"fingerprint {body['fingerprint']}",
    ]
    for alert in body["alerts"]:
        line = (
            f"  #{alert['seq']} window {alert['window']} "
            f"t={alert['start_us'] / 1000.0:.1f}ms "
            f"{alert['kind']} {alert['rule']} severity={alert['severity']}"
        )
        blame = alert.get("blame")
        if blame and blame.get("blame_fraction"):
            top = max(
                blame["blame_fraction"].items(), key=lambda kv: kv[1]
            )
            line += f" blame[{blame['basis']}]={top[0]}:{top[1]:.2f}"
        lines.append(line)
    if not body["alerts"]:
        lines.append("  no alerts (healthy run)")
    return "\n".join(lines)


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, Tracer, WindowedRecorder
    from repro.obs.monitor import (
        HealthMonitor,
        MonitorConfig,
        TtyStatusView,
        monitor_fingerprint,
        parse_rule,
    )

    run = _replay(args)
    builder = run.begin(
        "repro monitor",
        system=args.system,
        window_us=args.window_us,
        slo_us=args.slo_us,
        warmup_windows=args.warmup_windows,
        rules=list(args.rule),
    )
    # Every request is traced (sample_every=1) and there is no warmup
    # exclusion (the parser's warmup_fraction default is 0): a monitor
    # wants blame tables for *any* window an alert lands in, including
    # early ones.
    tracer = Tracer(sample_every=args.sample_every, keep_slowest=0)
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=args.window_us)
    monitor = HealthMonitor(
        recorder,
        registry=registry,
        tracer=tracer,
        rules=[parse_rule(spec) for spec in args.rule] if args.rule else None,
        config=MonitorConfig(
            slo_us=args.slo_us, warmup_windows=args.warmup_windows
        ),
    ).attach()
    status = None
    if args.status:
        status = TtyStatusView(sys.stderr)
        monitor.add_observer(status)
    run.replay(args.system, registry=registry, tracer=tracer, recorder=recorder)
    if status is not None:
        status.finish()
    # The artifact is virtual-time-only (the monitor never sees wall
    # clock), so fixed seed/config reproduce it byte for byte; the
    # fingerprint covers the monitor body.
    body = monitor.to_dict()
    body["fingerprint"] = monitor_fingerprint(body)
    artifact = {
        "workload": args.workload,
        "system": args.system,
        "engine": "des",
        "n_channels": args.channels,
        "requests": args.requests,
        "seed": args.seed,
        "monitor": body,
    }
    side_files = _write_monitor_files(monitor, registry, args.jsonl, args.prom)
    _write_artifact(
        args,
        artifact,
        builder,
        _monitor_text,
        noun="report",
        metrics=registry.snapshot(),
        side_files=side_files,
        windows_closed=monitor.windows_closed,
        alerts=monitor.n_alerts,
    )
    if args.fail_on_alert and monitor.n_alerts > 0:
        print(f"{monitor.n_alerts} alert(s) raised", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics_ls(args: argparse.Namespace) -> int:
    from repro.obs import ChannelTelemetry, MetricsRegistry, WindowedRecorder
    from repro.obs.monitor import HealthMonitor, metric_kind

    run = _replay(args)
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=args.window_us)
    # Attaching the monitor makes its own monitor.* instruments part of
    # the dump, so the listing covers the full namespace a monitored
    # run would export; likewise attaching media telemetry makes the
    # channel.* series and instruments part of the listing.
    HealthMonitor(recorder, registry=registry).attach()
    telemetry = ChannelTelemetry(
        run.ssd_config.n_blocks,
        page_bits=run.ssd_config.page_size_bytes * 8,
        seed=args.seed,
    )
    run.replay(
        args.system,
        registry=registry,
        recorder=recorder,
        channel_telemetry=telemetry,
    )
    instruments = [
        {"name": name, "kind": metric_kind(instrument)}
        for name, instrument in registry.instruments()
    ]
    series = [
        {"name": name, "kind": "windowed"}
        for name in recorder.series_names()
    ]
    if args.json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "system": args.system,
                    "engine": "des",
                    "metrics": instruments,
                    "windowed_series": series,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    width = max(
        (len(row["name"]) for row in instruments + series), default=0
    )
    print(f"# registry instruments ({len(instruments)})")
    for row in instruments:
        print(f"{row['name']:<{width}}  {row['kind']}")
    print(f"# windowed series ({len(series)})")
    for row in series:
        print(f"{row['name']:<{width}}  {row['kind']}")
    return 0


def _profile_text(artifact: dict) -> list[str]:
    """Human-readable lines for one ``repro.profile/1`` artifact."""
    wall = artifact["wall"]
    loop = wall["loop"]
    lines = [
        f"profile [{artifact['mode']}] {artifact['workload']} on "
        f"{artifact['system']} ({artifact['n_channels']} channels, "
        f"{artifact['requests']} requests, seed {artifact['seed']})",
        f"loop: {loop['wall_s']:.3f} s wall, {loop['events']} events "
        f"({loop['events_per_s']:.0f}/s), "
        f"{loop['requests_per_s']:.0f} requests/s",
    ]
    if artifact["mode"] == "instrument":
        lines.append(
            f"attributed {loop['attributed_s']:.3f} s, unattributed "
            f"{loop['unattributed_s']:.3f} s "
            f"(calibrated self-overhead bound {loop['self_overhead_s']:.3f} s)"
        )
        for section in ("events", "phases"):
            entries = wall.get(section, {})
            if not entries:
                continue
            lines.append(f"{section}:")
            width = max(len(k) for k in entries)
            for key, row in sorted(
                entries.items(), key=lambda kv: -kv[1]["exclusive_s"]
            ):
                lines.append(
                    f"  {key:{width}s}  {row['count']:>9d}x  "
                    f"excl {row['exclusive_s']:.3f} s  "
                    f"incl {row['inclusive_s']:.3f} s"
                )
    elif artifact["mode"] == "sample":
        sampler = wall["sampler"]
        lines.append(
            f"sampler: {sampler['n_samples']} samples at {sampler['hz']:g} Hz, "
            f"{sampler['distinct_stacks']} distinct stacks, "
            f"self-overhead {sampler['self_overhead_fraction']:.2%}"
        )
        lines.append("heaviest stacks (collapsed leaf shown):")
        for line in sampler["collapsed"][:10]:
            stack, _, count = line.rpartition(" ")
            lines.append(f"  {count:>5s}  {stack.rsplit(';', 1)[-1]}")
    else:
        alloc = wall["alloc"]
        lines.append(
            f"allocations: peak {alloc['peak_kb']:.0f} KiB traced, "
            f"{alloc['current_kb']:.0f} KiB live at end"
        )
        lines.append("top allocation sites:")
        for site in alloc["top"]:
            lines.append(
                f"  {site['size_kb']:>9.1f} KiB  {site['count']:>8d}x  "
                f"{site['site']}"
            )
    return lines


def _cmd_profile(args: argparse.Namespace) -> int:
    target = Path(args.workload)
    if target.is_file():
        # Legacy surface: ``repro profile <trace.csv>`` summarises a
        # CSV trace file's workload statistics.
        from repro.traces import profile_trace, read_trace_csv

        profile = profile_trace(read_trace_csv(target))
        for key, value in profile.summary().items():
            print(f"{key:22s} {value}")
        return 0

    from repro.errors import ConfigurationError
    from repro.obs import MetricsRegistry
    from repro.obs.profile import profile_fingerprint, profile_replay

    if args.collapsed and args.mode != "sample":
        raise ConfigurationError("--collapsed requires --mode sample")
    run = _replay(args)
    builder = run.begin("repro profile", system=args.system, mode=args.mode)
    registry = MetricsRegistry()
    artifact = profile_replay(
        run,
        mode=args.mode,
        system=args.system,
        hz=args.hz,
        top=args.top,
        registry=registry,
    )
    artifact["fingerprint"] = profile_fingerprint(artifact)
    if args.collapsed:
        collapsed_path = Path(args.collapsed)
        collapsed_path.write_text(
            "\n".join(artifact["wall"]["sampler"]["collapsed"]) + "\n"
        )
        print(f"collapsed stacks written to {collapsed_path}", file=sys.stderr)
    _write_artifact(
        args,
        artifact,
        builder,
        lambda a: "\n".join(_profile_text(a)),
        noun="profile",
        metrics=registry.snapshot(),
        # allocation_profile stops tracemalloc before the manifest is
        # finished; carry the measured peak over explicitly.
        peak_py_alloc_kb=(
            int(artifact["wall"]["alloc"]["peak_kb"])
            if args.mode == "alloc"
            else None
        ),
        fingerprint=artifact["fingerprint"],
    )
    return 0


#: Options several commands share, each declared once here.
_SHARED_OPTIONS = {
    "--system": {
        "default": "flexlevel",
        "help": "storage system to run (default: flexlevel)",
    },
    "--window-us": {
        "type": float,
        "default": 1000.0,
        "help": "telemetry window width in simulated microseconds "
        "(default 1000 = 1 ms)",
    },
    "--json": {
        "action": "store_true",
        "help": "print JSON to stdout instead of the human-readable view",
    },
    "--sample-every": {
        "type": int,
        "default": 1,
        "help": "trace every N-th post-warmup request (default: "
        "%(default)s; 0 disables head sampling)",
    },
    "--keep-slowest": {
        "type": int,
        "default": 0,
        "help": "also keep the K slowest requests' traces "
        "(default: %(default)s)",
    },
    "--spo-rate": {
        "type": float,
        "default": 0.0,
        "help": "seeded sudden-power-off arrival rate in crashes per "
        "simulated second; see docs/RECOVERY.md",
    },
    "--spo-seed": {
        "type": int,
        "default": 2029,
        "help": "SPO schedule RNG seed (independent of --seed)",
    },
}


def _add_options(parser, *flags: str, out: str | None = None) -> None:
    """Declare the shared ``flags`` on ``parser`` (or an argument group).

    ``out`` adds ``--out``, whose default is ``out`` filled in from the
    parsed arguments (:func:`_out_path`).
    """
    for flag in flags:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])
    if out is not None:
        parser.add_argument(
            "--out",
            default=None,
            help="artifact path (default: "
            + out.replace("{", "<").replace("}", ">")
            + "); the run manifest is written beside it as "
            "<stem>_manifest.json",
        )
        parser.set_defaults(default_out=out)


def _add_run_arguments(
    parser: argparse.ArgumentParser, *, faults: bool = True, **workload
) -> None:
    """The run arguments every trace-replay command shares (:func:`_replay`).

    Leading requests replay unrecorded (warmup) unless a command sets
    its own ``warmup_fraction`` default.  ``workload`` holds extra
    keywords (metavar, help) for the workload positional; ``faults``
    adds the fault-injection options.
    """
    parser.set_defaults(warmup_fraction=0.25, faults=False)
    parser.add_argument("workload", nargs="?", default="fin-2", **workload)
    parser.add_argument("--requests", type=int, default=30_000)
    parser.add_argument("--blocks", type=int, default=256)
    parser.add_argument("--pe", type=float, default=6000.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--channels",
        type=int,
        default=4,
        help="flash channels (default: 4; --channels 1 --no-retry is the "
        "single FIFO queue of the paper's Fig. 6/7 drivers)",
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="disable the read-retry model",
    )
    if not faults:
        return
    parser.add_argument(
        "--faults",
        action="store_true",
        help="enable seeded fault injection (bad blocks, program/erase "
        "failures, uncorrectable reads); see docs/FAULTS.md",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=2027,
        help="fault-injection RNG seed (independent of --seed)",
    )
    parser.add_argument(
        "--fault-scale",
        type=float,
        default=1.0,
        help="multiply the program/erase/uncorrectable fault rates "
        "(accelerated-aging factor for smoke tests and sweeps)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="generate the reproduction report")
    report.add_argument("--fast", action="store_true")
    report.add_argument("--output", default=None)
    report.add_argument(
        "--manifest",
        default=None,
        help="also write a run manifest (provenance JSON) to this path",
    )
    report.set_defaults(handler=_cmd_report)

    simulate = commands.add_parser("simulate", help="compare the four systems")
    _add_run_arguments(simulate)
    _add_options(simulate, "--json")
    simulate.add_argument(
        "--out-dir",
        default=".",
        help="directory the --json run manifest is written to",
    )
    # Each system crash/recovers/resumes through the same SPO schedule.
    _add_options(simulate, "--spo-rate", "--spo-seed")
    simulate.set_defaults(handler=_cmd_simulate)

    crash = commands.add_parser(
        "crash",
        help="sudden-power-off drill: cut, remount, verify, resume",
    )
    _add_run_arguments(crash)
    # Every leg's responses count: the drill compares legs, not a
    # steady state.
    crash.set_defaults(warmup_fraction=0.0)
    _add_options(
        crash,
        "--system",
        "--json",
        "--spo-rate",
        "--spo-seed",
        out="crash_{workload}_{system}.json",
    )
    crash.add_argument(
        "--at-us",
        type=float,
        default=None,
        help="deterministic power cut at this virtual time "
        "(microseconds); combine with or replace --spo-rate",
    )
    crash.add_argument(
        "--max-crashes",
        type=int,
        default=8,
        help="stop injecting after this many cuts (rate mode)",
    )
    crash.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="replay the trace suffix on the recovered system "
        "(--no-resume stops after the first recovery)",
    )
    crash.add_argument(
        "--checkpoint-interval-us",
        type=float,
        default=500_000.0,
        help="virtual-time gap between mapping checkpoints (smaller = "
        "shorter journal replay at remount)",
    )
    crash.set_defaults(handler=_cmd_crash)

    trace = commands.add_parser(
        "trace", help="record and export sampled per-request traces"
    )
    _add_run_arguments(trace)
    _add_options(
        trace,
        "--system",
        "--sample-every",
        "--keep-slowest",
        out="trace_{workload}_{system}.json",
    )
    trace.set_defaults(sample_every=100, keep_slowest=8)
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "both"),
        default="chrome",
        help="chrome: chrome://tracing JSON; jsonl: one span tree per line "
        "(next to --out, with a .jsonl suffix)",
    )
    trace.set_defaults(handler=_cmd_trace)

    explain = commands.add_parser(
        "explain",
        help="attribute end-to-end latency to causes per percentile band",
    )
    _add_run_arguments(explain)
    # Every request is attributed by default, so blame reconciles with
    # the response histograms.
    _add_options(
        explain,
        "--system",
        "--window-us",
        "--sample-every",
        "--keep-slowest",
        out="explain_{workload}_{system}.json",
    )
    explain.add_argument(
        "--vs",
        default=None,
        metavar="SYSTEM",
        help="also run SYSTEM and report blame-fraction deltas "
        "(candidate - SYSTEM)",
    )
    explain.add_argument(
        "--include-requests",
        action="store_true",
        help="embed per-request attribution records in the JSON artifact",
    )
    explain_format = explain.add_mutually_exclusive_group()
    _add_options(explain_format, "--json")
    explain_format.add_argument(
        "--csv", action="store_true", help="print the blame tables as CSV"
    )
    explain_format.add_argument(
        "--markdown",
        action="store_true",
        help="print a markdown blame table (the default)",
    )
    explain.set_defaults(handler=_cmd_explain)

    channel = commands.add_parser(
        "channel",
        help="media telemetry: per-block BER/wear heatmaps, retry-ladder "
        "and LDPC-convergence statistics",
    )
    _add_run_arguments(channel)
    _add_options(
        channel, "--system", "--window-us", out="channel_{workload}_{system}.json"
    )
    channel.add_argument(
        "--vs",
        default=None,
        metavar="SYSTEM",
        help="also run SYSTEM on the same trace and diff sensing-level "
        "usage and per-mode BER (the Fig. 6 mechanism made visible)",
    )
    channel.add_argument(
        "--trajectories",
        type=int,
        default=256,
        help="decode-trajectory sample cap in the artifact (default 256)",
    )
    channel.add_argument(
        "--heatmap-metric",
        choices=(
            "observed_ber",
            "analytic_ber",
            "reads",
            "retry_rounds",
            "erases",
        ),
        default="observed_ber",
        help="per-block metric the TTY heatmap renders "
        "(default observed_ber)",
    )
    channel.add_argument(
        "--heatmap-width",
        type=int,
        default=32,
        help="heatmap blocks per row (default 32)",
    )
    channel_format = channel.add_mutually_exclusive_group()
    _add_options(channel_format, "--json")
    channel_format.add_argument(
        "--markdown",
        action="store_true",
        help="print markdown mode/sensing tables",
    )
    channel.set_defaults(handler=_cmd_channel)

    serve = commands.add_parser(
        "serve",
        help="multi-tenant serving: queue pairs, QoS scheduling, SLO report",
    )
    serve.add_argument(
        "--mix",
        default="fin-2:3,fin-2:1:10",
        help="tenant mix: comma-separated preset[:count[:rate_x]][@closed] "
        "groups (default: three fin-2 tenants plus one 10x noisy neighbor)",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="rescale the mix's group counts to this many tenants total",
    )
    serve.add_argument(
        "--scheduler",
        choices=("fifo", "wfq", "edf"),
        default="fifo",
        help="QoS discipline over the submission-queue heads",
    )
    serve.add_argument(
        "--slo-us",
        type=float,
        default=2000.0,
        help="per-tenant response-time SLO in microseconds",
    )
    serve.add_argument(
        "--sq-depth",
        type=int,
        default=256,
        help="per-tenant submission-queue bound (overflow = rejection)",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=None,
        help="controller dispatch window: max requests in flight inside "
        "the device (default: 2 * channels)",
    )
    serve.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="per-tenant token-bucket admission rate in requests/s "
        "(default: unshaped)",
    )
    _add_options(
        serve, "--system", "--window-us", out="serve_{scheduler}_{system}.json"
    )
    serve.add_argument("--requests", type=int, default=400,
                       help="requests submitted per tenant")
    serve.add_argument("--blocks", type=int, default=256)
    serve.add_argument("--pe", type=float, default=6000.0)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--channels", type=int, default=4)
    serve.add_argument(
        "--include-requests",
        action="store_true",
        help="embed per-request attribution records in the JSON artifact",
    )
    serve_format = serve.add_mutually_exclusive_group()
    _add_options(serve_format, "--json")
    serve_format.add_argument(
        "--markdown",
        action="store_true",
        help="print the markdown SLO report (the default)",
    )
    serve.add_argument(
        "--monitor",
        action="store_true",
        help="attach the online health monitor (per-tenant SLO burn-rate "
        "alerting plus wear-drift change-point rules); the artifact "
        "gains a repro.monitor/1 section — see docs/MONITORING.md",
    )
    serve.add_argument(
        "--monitor-jsonl",
        default=None,
        metavar="PATH",
        help="also write the monitor's JSONL alert stream here "
        "(implies --monitor)",
    )
    serve.add_argument(
        "--monitor-prom",
        default=None,
        metavar="PATH",
        help="also write a Prometheus text-format metrics snapshot here "
        "(implies --monitor)",
    )
    serve.add_argument(
        "--crash-us",
        type=float,
        default=None,
        help="cut the run with a sudden power-off at this virtual time; "
        "queued and in-flight requests land in the per-tenant 'aborted' "
        "bucket and conservation is checked in crashed mode",
    )
    serve.set_defaults(handler=_cmd_serve)

    monitor = commands.add_parser(
        "monitor",
        help="run one workload with online health monitoring: burn-rate "
        "and change-point alerts with per-window blame tables",
    )
    _add_run_arguments(monitor)
    monitor.set_defaults(warmup_fraction=0.0)
    # Every request is traced by default, for the per-alert blame tables.
    _add_options(
        monitor,
        "--system",
        "--window-us",
        "--json",
        "--sample-every",
        out="monitor_{workload}_{system}.json",
    )
    monitor.add_argument(
        "--slo-us",
        type=float,
        default=None,
        help="arm window-tail SLO burn-rate alerting at this response "
        "bound (default: change-point rules only)",
    )
    monitor.add_argument(
        "--warmup-windows",
        type=int,
        default=8,
        help="windows each detector calibrates its reference over "
        "before scoring",
    )
    monitor.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="SPEC",
        help="replace the stock rules with name=detector(series,signal"
        "[,k=v...]) specs (repeatable); see docs/MONITORING.md",
    )
    monitor.add_argument(
        "--status",
        action="store_true",
        help="live TTY status line on stderr (one redraw per closed "
        "window, a line per alert)",
    )
    monitor.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="write the JSONL alert stream (repro.monitor/1) here",
    )
    monitor.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write a Prometheus text-format metrics snapshot here",
    )
    monitor.add_argument(
        "--fail-on-alert",
        action="store_true",
        help="exit 1 when any alert fired (CI health gate)",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    metrics = commands.add_parser(
        "metrics",
        help="telemetry namespace tools (ls: dump metric names and types)",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_ls = metrics_sub.add_parser(
        "ls",
        help="run one workload and dump the dotted metric namespace it "
        "populates, with instrument types",
    )
    _add_run_arguments(metrics_ls)
    _add_options(metrics_ls, "--system", "--window-us", "--json")
    # A short run discovers the namespace just as well as a full one.
    metrics_ls.set_defaults(handler=_cmd_metrics_ls, requests=2000)

    profile = commands.add_parser(
        "profile",
        help="wall-clock profile of a workload replay (or CSV trace stats)",
    )
    _add_run_arguments(
        profile,
        faults=False,
        metavar="target",
        help="workload name to profile, or a CSV trace file to summarise",
    )
    _add_options(
        profile, "--system", "--json", out="profile_{workload}_{mode}.json"
    )
    profile.add_argument(
        "--mode",
        choices=("instrument", "sample", "alloc"),
        default="instrument",
        help="instrument: per-event/per-phase wall accounting; sample: "
        "collapsed-stack sampler for flamegraphs; alloc: tracemalloc "
        "allocation sites",
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=97.0,
        help="sampling frequency for --mode sample (prime Hz avoids "
        "lockstep with periodic work)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="allocation sites kept in --mode alloc output",
    )
    profile.add_argument(
        "--collapsed",
        default=None,
        metavar="PATH",
        help="also write collapsed-stack lines here (--mode sample; feed "
        "to flamegraph.pl or speedscope)",
    )
    profile.set_defaults(handler=_cmd_profile)

    args = parser.parse_args(argv)
    from repro.errors import ConfigurationError

    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # Bad names and values from any layer (unknown workload or
        # system, malformed mix grammar, invalid knobs) exit 2 instead
        # of surfacing a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
