"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
report
    Generate the full reproduction report (markdown).
simulate
    Run the four storage systems on one paper workload and print the
    comparison table (``--json`` for machine-readable rows plus a run
    manifest).  ``--spo-rate`` adds seeded sudden-power-off injection:
    each system crash/recovers/resumes through the same SPO schedule.
crash
    Sudden-power-off drill on one system: cut the run at ``--at-us``
    (or at seeded ``--spo-rate`` arrivals), remount from the on-medium
    state (checkpoint + journal, OOB-scan cross-check), replay the
    power-loss-protection log, and resume the trace suffix.  Exports a
    deterministic ``repro/crash-run/v1`` artifact with per-cycle
    recovery breakdowns; see docs/RECOVERY.md.
trace
    Run one system through the DES engine with per-request tracing and
    export the sampled span trees (Chrome trace JSON and/or JSONL)
    with a run manifest.
explain
    Attribute end-to-end latency exactly to named causes (queue wait,
    GC stalls, sensing, transfer, LDPC decode, retry rounds, ...) per
    percentile band, alongside virtual-time-windowed telemetry series;
    ``--vs`` diffs the blame tables of two systems.
serve
    Multi-tenant serving front-end: seeded tenant arrival streams feed
    per-tenant NVMe-style queue pairs, a QoS scheduler (FIFO /
    weighted-fair / EDF) decides dispatch order, and the report breaks
    response times, SLO violations and latency blame down per tenant.
    ``--monitor`` attaches the online health monitor (per-tenant SLO
    burn-rate alerting plus change-point rules).
monitor
    Online health monitoring of one workload replay: multi-window SLO
    burn-rate alerting and CUSUM / Page–Hinkley change-point detection
    over the windowed wear-drift telemetry, each alert carrying a
    latency-blame snapshot of the offending window.  Exports a
    deterministic ``repro.monitor/1`` artifact, a JSONL alert stream
    and a Prometheus text-format metrics snapshot.
metrics
    Telemetry namespace tools; ``metrics ls <workload>`` runs a short
    replay and dumps every dotted metric name it populates with its
    instrument type (counter / gauge / histogram / windowed).
profile
    Wall-clock profile of one workload replay in three modes —
    ``instrument`` (per-event-type and per-phase wall accounting over
    the engine loop), ``sample`` (collapsed-stack sampler for
    flamegraph/speedscope) and ``alloc`` (tracemalloc top allocation
    sites) — writing a ``repro.profile/1`` artifact plus a run
    manifest.  Given a CSV file path instead of a workload name, it
    summarises the trace's workload statistics (legacy surface).
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


def _simulation_inputs(args: argparse.Namespace):
    """The (ssd_config, workload, trace) a run starts from."""
    from repro.ftl import SsdConfig
    from repro.traces import make_workload

    ssd_config = SsdConfig(
        n_blocks=args.blocks, pages_per_block=64, initial_pe_cycles=args.pe
    )
    workload = make_workload(args.workload, ssd_config.logical_pages)
    trace = workload.generate(args.requests, seed=args.seed)
    return ssd_config, workload, trace


def _build_system(
    args: argparse.Namespace, name: str, ssd_config, workload, fault_config,
    policy=None,
):
    """One storage system, with a fresh fault injector when faults are on.

    Every system of a run sees the same fault schedule, drawn from the
    same seeded streams.  ``policy`` defaults to a private
    LevelAdjustPolicy.
    """
    from repro.baselines import SystemConfig, build_system
    from repro.core.level_adjust import LevelAdjustPolicy
    from repro.faults import FaultInjector

    return build_system(
        name,
        SystemConfig.for_run(
            ssd_config, workload.footprint_pages, args.requests
        ),
        level_adjust=policy or LevelAdjustPolicy(),
        fault_injector=(
            FaultInjector(fault_config) if fault_config is not None else None
        ),
    )


def _engine(args: argparse.Namespace, system, **instruments):
    """The run's engine: warmup, channels and read retry from ``args``.

    ``instruments`` (registry, tracer, recorder, channel_telemetry) are
    attached as observers (:func:`repro.sim.observe`).
    """
    from repro.sim import DesSimulationEngine, ReadRetryModel, observe

    return DesSimulationEngine(
        system,
        warmup_fraction=args.warmup_fraction,
        n_channels=args.channels,
        retry_model=None if args.no_retry else ReadRetryModel(),
        observers=observe(**instruments),
    )


def _run_config(args: argparse.Namespace) -> dict:
    """The manifest's JSON-serialisable run configuration.

    ``engine`` is a constant: it keeps every recorded config hash.
    """
    return {
        "workload": args.workload,
        "requests": args.requests,
        "blocks": args.blocks,
        "pe": args.pe,
        "seed": args.seed,
        "engine": "des",
        "channels": args.channels,
        "retry": not args.no_retry,
    }


def _fault_config(args: argparse.Namespace):
    """The run's FaultConfig, or None when ``--faults`` was not given."""
    from repro.faults import FaultConfig

    if not args.faults:
        return None
    return FaultConfig(enabled=True, seed=args.fault_seed).scaled(
        args.fault_scale
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.baselines import SystemConfig, system_names
    from repro.core.level_adjust import LevelAdjustPolicy
    from repro.obs import ManifestBuilder, MetricsRegistry
    from repro.sim import run_with_crashes
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    # One policy shared by the four systems (its BER cache counters
    # land in every system's stats).
    policy = LevelAdjustPolicy()
    fault_config = _fault_config(args)
    power = None
    if args.spo_rate != 0.0:
        from repro.faults import PowerConfig

        power = PowerConfig(
            enabled=True, seed=args.spo_seed, rate_per_s=args.spo_rate
        )
    run_config = _run_config(args)
    if power is not None:
        run_config["spo"] = power.to_dict()
    builder = ManifestBuilder.begin(
        "repro simulate", run_config, seed=args.seed
    )
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
    rows = []
    json_rows = []
    manifest_metrics: dict[str, float] = {}
    for name in system_names():
        registry = MetricsRegistry() if args.json else None
        crash_run = None
        if power is not None:
            crash_run = run_with_crashes(
                name,
                SystemConfig.for_run(
                    ssd_config, workload.footprint_pages, args.requests
                ),
                trace,
                power,
                fault_config=fault_config,
                warmup_fraction=args.warmup_fraction,
                n_channels=args.channels,
                retry=not args.no_retry,
                workload_name=args.workload,
                registry=registry,
            )
            system = crash_run.final_system
            result = crash_run.final
        else:
            system = _build_system(
                args, name, ssd_config, workload, fault_config, policy
            )
            result = _engine(args, system, registry=registry).run(
                trace, args.workload
            )
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
            row += [
                crash_run.crashes,
                sum(r.recovery_time_us for r in crash_run.reports),
            ]
        if fault_config is not None:
            row += [
                result.uncorrectable_reads,
                int(system.ssd.stats.blocks_retired),
                "yes" if system.ssd.read_only else "no",
            ]
        rows.append(tuple(row))
        if args.json:
            json_row = {"system": name, "summary": result.summary()}
            if crash_run is not None:
                crash_body = crash_run.to_dict()
                json_row["crash"] = {
                    "crashes": crash_run.crashes,
                    "recovery_time_us": sum(
                        r.recovery_time_us for r in crash_run.reports
                    ),
                    "fingerprint": crash_body["fingerprint"],
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
    if fault_config is not None:
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
    from repro.baselines import SystemConfig, system_names
    from repro.faults import PowerConfig
    from repro.ftl import RecoveryConfig
    from repro.obs import ManifestBuilder, MetricsRegistry
    from repro.sim import run_with_crashes
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    if args.system not in system_names():
        print(f"unknown system {args.system!r}; choose from {system_names()}")
        return 2
    if args.at_us is None and args.spo_rate == 0.0:
        print("error: need --at-us or --spo-rate to schedule a power cut",
              file=sys.stderr)
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    power = PowerConfig(
        enabled=True,
        seed=args.spo_seed,
        at_us=args.at_us,
        rate_per_s=args.spo_rate,
        max_crashes=args.max_crashes,
    )
    recovery = RecoveryConfig(
        checkpoint_interval_us=args.checkpoint_interval_us
    )
    fault_config = _fault_config(args)
    run_config = _run_config(args)
    run_config.update(
        {
            "system": args.system,
            "spo": power.to_dict(),
            "resume": args.resume,
            "checkpoint_interval_us": args.checkpoint_interval_us,
        }
    )
    builder = ManifestBuilder.begin("repro crash", run_config, seed=args.seed)
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
    registry = MetricsRegistry()
    run = run_with_crashes(
        args.system,
        SystemConfig.for_run(
            ssd_config, workload.footprint_pages, args.requests
        ),
        trace,
        power,
        recovery=recovery,
        fault_config=fault_config,
        resume=args.resume,
        warmup_fraction=args.warmup_fraction,
        n_channels=args.channels,
        retry=not args.no_retry,
        workload_name=args.workload,
        registry=registry,
    )
    body = run.to_dict()
    out = Path(args.out or f"crash_{args.workload}_{args.system}.json")
    text = json.dumps(body, indent=2, sort_keys=True)
    out.write_text(text + "\n")
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=[str(out)],
        crashes=run.crashes,
        fingerprint=body["fingerprint"],
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text)
    else:
        print(_crash_text(body))
    print(f"artifact written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.baselines import system_names
    from repro.obs import ManifestBuilder, MetricsRegistry, Tracer
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    if args.system not in system_names():
        print(f"unknown system {args.system!r}; choose from {system_names()}")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    fault_config = _fault_config(args)
    system = _build_system(
        args, args.system, ssd_config, workload, fault_config
    )
    tracer = Tracer(
        sample_every=args.sample_every, keep_slowest=args.keep_slowest
    )
    registry = MetricsRegistry()
    engine = _engine(args, system, registry=registry, tracer=tracer)
    run_config = _run_config(args)
    run_config["system"] = args.system
    builder = ManifestBuilder.begin("repro trace", run_config, seed=args.seed)
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
    result = engine.run(trace, args.workload)

    out = Path(args.out or f"trace_{args.workload}_{args.system}.json")
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
    from repro.baselines import system_names
    from repro.obs import (
        AttributionReport,
        ManifestBuilder,
        MetricsRegistry,
        Tracer,
        WindowedRecorder,
        diff_reports,
    )
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    for name in [args.system] + ([args.vs] if args.vs else []):
        if name not in system_names():
            print(f"unknown system {name!r}; choose from {system_names()}")
            return 2
    if args.vs == args.system:
        print(f"--vs {args.vs!r} must name a different system")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    fault_config = _fault_config(args)

    def run_one(system_name: str):
        system = _build_system(
            args, system_name, ssd_config, workload, fault_config
        )
        tracer = Tracer(
            sample_every=args.sample_every, keep_slowest=args.keep_slowest
        )
        registry = MetricsRegistry()
        recorder = WindowedRecorder(window_us=args.window_us)
        _engine(
            args, system, registry=registry, tracer=tracer, recorder=recorder
        ).run(trace, args.workload)
        report = AttributionReport.from_spans(tracer.spans)
        return tracer, registry, recorder, report

    run_config = _run_config(args)
    run_config.update(
        {"system": args.system, "vs": args.vs, "window_us": args.window_us}
    )
    builder = ManifestBuilder.begin("repro explain", run_config, seed=args.seed)
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
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
    out = Path(args.out or f"explain_{args.workload}_{args.system}.json")
    text = json.dumps(artifact, indent=2, sort_keys=True)
    out.write_text(text + "\n")
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=[str(out)],
        traces_kept=len(tracer.spans),
        requests_seen=tracer.n_seen,
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text)
    elif args.csv:
        print(_blame_csv(artifact["report"]))
    else:
        print(_blame_markdown(artifact))
    print(f"report written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    return 0


def _channel_heatmap_lines(
    payload: dict, metric: str, width: int
) -> list[str]:
    """ASCII block heatmap rows for one channel-artifact payload."""
    import numpy as np

    from repro.obs import render_block_heatmap

    values = np.zeros(payload["config"]["n_blocks"])
    for entry in payload["blocks"]:
        values[entry["block"]] = entry[metric]
    return render_block_heatmap(values, width=width)


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
    lines.extend(_channel_heatmap_lines(payload, metric, width))
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
    from repro.baselines import system_names
    from repro.obs import (
        ChannelTelemetry,
        ManifestBuilder,
        MetricsRegistry,
        WindowedRecorder,
        diff_channel_artifacts,
    )
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    for name in [args.system] + ([args.vs] if args.vs else []):
        if name not in system_names():
            print(f"unknown system {name!r}; choose from {system_names()}")
            return 2
    if args.vs == args.system:
        print(f"--vs {args.vs!r} must name a different system")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    fault_config = _fault_config(args)

    def run_one(system_name: str):
        system = _build_system(
            args, system_name, ssd_config, workload, fault_config
        )
        registry = MetricsRegistry()
        recorder = WindowedRecorder(window_us=args.window_us)
        telemetry = ChannelTelemetry(
            ssd_config.n_blocks,
            page_bits=ssd_config.page_size_bytes * 8,
            seed=args.seed,
            trajectory_cap=args.trajectories,
        )
        _engine(
            args,
            system,
            registry=registry,
            recorder=recorder,
            channel_telemetry=telemetry,
        ).run(trace, args.workload)
        return telemetry, registry

    run_config = _run_config(args)
    run_config.update({"system": args.system, "vs": args.vs})
    builder = ManifestBuilder.begin("repro channel", run_config, seed=args.seed)
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
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
    out = Path(args.out or f"channel_{args.workload}_{args.system}.json")
    text = json.dumps(artifact, indent=2, sort_keys=True)
    out.write_text(text + "\n")
    manifest = builder.finish(
        metrics=registry.snapshot(), artifacts=[str(out)]
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text)
    elif args.markdown:
        print(_channel_markdown(artifact))
    else:
        print(_channel_text(artifact, args.heatmap_metric, args.heatmap_width))
    print(f"channel artifact written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.baselines import SystemConfig, build_system, system_names
    from repro.ftl import SsdConfig
    from repro.obs import ManifestBuilder, MetricsRegistry, WindowedRecorder
    from repro.obs.monitor import MonitorConfig, write_prometheus
    from repro.serve import (
        ServeEngine,
        build_artifact,
        dump_artifact,
        parse_mix,
        per_tenant_reports,
        render_markdown,
    )

    if args.system not in system_names():
        print(f"unknown system {args.system!r}; choose from {system_names()}")
        return 2
    # parse_mix validates workload names in the mix (exit 2 via the
    # top-level ConfigurationError handler).
    specs = parse_mix(
        args.mix,
        n_requests=args.requests,
        slo_us=args.slo_us,
        sq_depth=args.sq_depth,
        n_tenants=args.tenants,
    )
    ssd_config = SsdConfig(
        n_blocks=args.blocks, pages_per_block=64, initial_pe_cycles=args.pe
    )
    # Tenants spread their private hot sets across the whole logical
    # space, so the footprint is the full drive.
    config = SystemConfig.for_run(
        ssd_config, ssd_config.logical_pages, args.requests
    )
    system = build_system(args.system, config)
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=args.window_us)
    monitored = args.monitor or bool(args.monitor_jsonl or args.monitor_prom)
    engine = ServeEngine(
        system,
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
    out = Path(args.out or f"serve_{args.scheduler}_{args.system}.json")
    text = dump_artifact(artifact)
    out.write_text(text)
    artifacts = [str(out)]
    if args.monitor_jsonl and result.monitor is not None:
        result.monitor.write_jsonl(args.monitor_jsonl)
        artifacts.append(args.monitor_jsonl)
        print(f"alert stream written to {args.monitor_jsonl}", file=sys.stderr)
    if args.monitor_prom:
        write_prometheus(registry, args.monitor_prom)
        artifacts.append(args.monitor_prom)
        print(
            f"prometheus snapshot written to {args.monitor_prom}",
            file=sys.stderr,
        )
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=artifacts,
        tenants=len(specs),
        requests_completed=artifact["fleet"]["completed"],
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text, end="")
    else:
        print(render_markdown(artifact))
    print(f"report written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
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
    from repro.baselines import system_names
    from repro.obs import (
        ManifestBuilder,
        MetricsRegistry,
        Tracer,
        WindowedRecorder,
    )
    from repro.obs.monitor import (
        HealthMonitor,
        MonitorConfig,
        TtyStatusView,
        monitor_fingerprint,
        parse_rule,
        write_prometheus,
    )
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    if args.system not in system_names():
        print(f"unknown system {args.system!r}; choose from {system_names()}")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    fault_config = _fault_config(args)
    system = _build_system(
        args, args.system, ssd_config, workload, fault_config
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
    engine = _engine(
        args, system, registry=registry, tracer=tracer, recorder=recorder
    )
    run_config = _run_config(args)
    run_config.update(
        {
            "system": args.system,
            "window_us": args.window_us,
            "slo_us": args.slo_us,
            "warmup_windows": args.warmup_windows,
            "rules": list(args.rule),
        }
    )
    builder = ManifestBuilder.begin("repro monitor", run_config, seed=args.seed)
    if fault_config is not None:
        builder.set_fault_config(fault_config.to_dict())
    engine.run(trace, args.workload)
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
    out = Path(args.out or f"monitor_{args.workload}_{args.system}.json")
    text = json.dumps(artifact, indent=2, sort_keys=True)
    out.write_text(text + "\n")
    artifacts = [str(out)]
    if args.jsonl:
        monitor.write_jsonl(args.jsonl)
        artifacts.append(args.jsonl)
        print(f"alert stream written to {args.jsonl}", file=sys.stderr)
    if args.prom:
        write_prometheus(registry, args.prom)
        artifacts.append(args.prom)
        print(f"prometheus snapshot written to {args.prom}", file=sys.stderr)
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=artifacts,
        windows_closed=monitor.windows_closed,
        alerts=monitor.n_alerts,
    )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.json:
        print(text)
    else:
        print(_monitor_text(artifact))
    print(f"report written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    if args.fail_on_alert and monitor.n_alerts > 0:
        print(f"{monitor.n_alerts} alert(s) raised", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics_ls(args: argparse.Namespace) -> int:
    from repro.baselines import system_names
    from repro.obs import ChannelTelemetry, MetricsRegistry, WindowedRecorder
    from repro.obs.monitor import HealthMonitor, metric_kind
    from repro.traces import workload_names

    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}")
        return 2
    if args.system not in system_names():
        print(f"unknown system {args.system!r}; choose from {system_names()}")
        return 2
    ssd_config, workload, trace = _simulation_inputs(args)
    system = _build_system(
        args, args.system, ssd_config, workload, _fault_config(args)
    )
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=args.window_us)
    # Attaching the monitor makes its own monitor.* instruments part of
    # the dump, so the listing covers the full namespace a monitored
    # run would export; likewise attaching media telemetry makes the
    # channel.* series and instruments part of the listing.
    HealthMonitor(recorder, registry=registry).attach()
    telemetry = ChannelTelemetry(
        ssd_config.n_blocks,
        page_bits=ssd_config.page_size_bytes * 8,
        seed=args.seed,
    )
    _engine(
        args,
        system,
        registry=registry,
        recorder=recorder,
        channel_telemetry=telemetry,
    ).run(trace, args.workload)
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
    target = Path(args.target)
    if target.is_file():
        # Legacy surface: ``repro profile <trace.csv>`` summarises a
        # CSV trace file's workload statistics.
        from repro.traces import profile_trace, read_trace_csv

        profile = profile_trace(read_trace_csv(target))
        for key, value in profile.summary().items():
            print(f"{key:22s} {value}")
        return 0

    from repro.obs import ManifestBuilder, MetricsRegistry
    from repro.obs.profile import profile_fingerprint, profile_workload

    run_config = {
        "workload": args.target,
        "system": args.system,
        "mode": args.mode,
        "requests": args.requests,
        "blocks": args.blocks,
        "pe": args.pe,
        "seed": args.seed,
        "engine": "des",
        "channels": args.channels,
        "retry": not args.no_retry,
    }
    builder = ManifestBuilder.begin("repro profile", run_config, seed=args.seed)
    registry = MetricsRegistry()
    artifact = profile_workload(
        args.target,
        mode=args.mode,
        system=args.system,
        requests=args.requests,
        blocks=args.blocks,
        pe=args.pe,
        seed=args.seed,
        channels=args.channels,
        retry=not args.no_retry,
        hz=args.hz,
        top=args.top,
        registry=registry,
    )
    artifact["fingerprint"] = profile_fingerprint(artifact)
    out = Path(args.out or f"profile_{args.target}_{args.mode}.json")
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    manifest = builder.finish(
        metrics=registry.snapshot(),
        artifacts=[str(out)],
        fingerprint=artifact["fingerprint"],
    )
    if args.mode == "alloc":
        # allocation_profile stops tracemalloc before the manifest is
        # finalised; carry the measured peak over explicitly.
        import dataclasses

        manifest = dataclasses.replace(
            manifest,
            peak_py_alloc_kb=int(artifact["wall"]["alloc"]["peak_kb"]),
        )
    manifest_path = manifest.write(out.with_name(out.stem + "_manifest.json"))
    if args.collapsed:
        if args.mode != "sample":
            print("error: --collapsed requires --mode sample", file=sys.stderr)
            return 2
        collapsed_path = Path(args.collapsed)
        collapsed_path.write_text(
            "\n".join(artifact["wall"]["sampler"]["collapsed"]) + "\n"
        )
        print(f"collapsed stacks written to {collapsed_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        print("\n".join(_profile_text(artifact)))
    print(f"profile written to {out}", file=sys.stderr)
    print(f"manifest written to {manifest_path}", file=sys.stderr)
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The simulation-scale arguments every trace-replay command shares.

    Leading requests replay unrecorded (warmup) unless a command sets
    its own ``warmup_fraction`` default.
    """
    parser.set_defaults(warmup_fraction=0.25)
    parser.add_argument("workload", nargs="?", default="fin-2")
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
    simulate.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable per-system summaries plus a run "
        "manifest instead of the table",
    )
    simulate.add_argument(
        "--out-dir",
        default=".",
        help="directory the --json run manifest is written to",
    )
    simulate.add_argument(
        "--spo-rate",
        type=float,
        default=0.0,
        help="seeded sudden-power-off arrival rate (crashes per "
        "simulated second); each system crash/recovers/resumes through "
        "the same schedule — see docs/RECOVERY.md",
    )
    simulate.add_argument(
        "--spo-seed",
        type=int,
        default=2029,
        help="SPO schedule RNG seed (independent of --seed)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    crash = commands.add_parser(
        "crash",
        help="sudden-power-off drill: cut, remount, verify, resume",
    )
    _add_run_arguments(crash)
    # Every leg's responses count: the drill compares legs, not a
    # steady state.
    crash.set_defaults(warmup_fraction=0.0)
    crash.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to crash (default: flexlevel)",
    )
    crash.add_argument(
        "--at-us",
        type=float,
        default=None,
        help="deterministic power cut at this virtual time "
        "(microseconds); combine with or replace --spo-rate",
    )
    crash.add_argument(
        "--spo-rate",
        type=float,
        default=0.0,
        help="seeded SPO arrival rate in crashes per simulated second",
    )
    crash.add_argument(
        "--spo-seed",
        type=int,
        default=2029,
        help="SPO schedule RNG seed (independent of --seed)",
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
    crash.add_argument(
        "--json",
        action="store_true",
        help="print the full repro/crash-run/v1 artifact JSON to stdout",
    )
    crash.add_argument(
        "--out",
        default=None,
        help="artifact path (default: crash_<workload>_<system>.json)",
    )
    crash.set_defaults(handler=_cmd_crash)

    trace = commands.add_parser(
        "trace", help="record and export sampled per-request traces"
    )
    _add_run_arguments(trace)
    trace.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to trace (default: flexlevel)",
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=100,
        help="keep every N-th request's trace (0 disables head sampling)",
    )
    trace.add_argument(
        "--keep-slowest",
        type=int,
        default=8,
        help="always keep the K slowest requests' traces",
    )
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "both"),
        default="chrome",
        help="chrome: chrome://tracing JSON; jsonl: one span tree per line",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="output path (default: trace_<workload>_<system>.json)",
    )
    trace.set_defaults(handler=_cmd_trace)

    explain = commands.add_parser(
        "explain",
        help="attribute end-to-end latency to causes per percentile band",
    )
    _add_run_arguments(explain)
    explain.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to explain (default: flexlevel)",
    )
    explain.add_argument(
        "--vs",
        default=None,
        metavar="SYSTEM",
        help="also run SYSTEM and report blame-fraction deltas "
        "(candidate - SYSTEM)",
    )
    explain.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="attribute every N-th post-warmup request (default 1: all "
        "of them, so blame reconciles with the response histograms)",
    )
    explain.add_argument(
        "--keep-slowest",
        type=int,
        default=0,
        help="additionally keep the K slowest requests' traces",
    )
    explain.add_argument(
        "--window-us",
        type=float,
        default=1000.0,
        help="telemetry window width in simulated microseconds "
        "(default 1000 = 1 ms)",
    )
    explain.add_argument(
        "--include-requests",
        action="store_true",
        help="embed per-request attribution records in the JSON artifact",
    )
    explain_format = explain.add_mutually_exclusive_group()
    explain_format.add_argument(
        "--json",
        action="store_true",
        help="print the full report artifact JSON to stdout",
    )
    explain_format.add_argument(
        "--csv", action="store_true", help="print the blame tables as CSV"
    )
    explain_format.add_argument(
        "--markdown",
        action="store_true",
        help="print a markdown blame table (the default)",
    )
    explain.add_argument(
        "--out",
        default=None,
        help="report artifact path (default: explain_<workload>_<system>.json)",
    )
    explain.set_defaults(handler=_cmd_explain)

    channel = commands.add_parser(
        "channel",
        help="media telemetry: per-block BER/wear heatmaps, retry-ladder "
        "and LDPC-convergence statistics",
    )
    _add_run_arguments(channel)
    channel.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to instrument (default: flexlevel)",
    )
    channel.add_argument(
        "--vs",
        default=None,
        metavar="SYSTEM",
        help="also run SYSTEM on the same trace and diff sensing-level "
        "usage and per-mode BER (the Fig. 6 mechanism made visible)",
    )
    channel.add_argument(
        "--window-us",
        type=float,
        default=1000.0,
        help="telemetry window width in simulated microseconds "
        "(default 1000 = 1 ms)",
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
    channel_format.add_argument(
        "--json",
        action="store_true",
        help="print the full channel artifact JSON to stdout",
    )
    channel_format.add_argument(
        "--markdown",
        action="store_true",
        help="print markdown mode/sensing tables",
    )
    channel.add_argument(
        "--out",
        default=None,
        help="artifact path (default: channel_<workload>_<system>.json)",
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
    serve.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to serve on (default: flexlevel)",
    )
    serve.add_argument("--requests", type=int, default=400,
                       help="requests submitted per tenant")
    serve.add_argument("--blocks", type=int, default=256)
    serve.add_argument("--pe", type=float, default=6000.0)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--channels", type=int, default=4)
    serve.add_argument(
        "--window-us",
        type=float,
        default=1000.0,
        help="telemetry window width in simulated microseconds",
    )
    serve.add_argument(
        "--include-requests",
        action="store_true",
        help="embed per-request attribution records in the JSON artifact",
    )
    serve_format = serve.add_mutually_exclusive_group()
    serve_format.add_argument(
        "--json",
        action="store_true",
        help="print the full serve artifact JSON to stdout",
    )
    serve_format.add_argument(
        "--markdown",
        action="store_true",
        help="print the markdown SLO report (the default)",
    )
    serve.add_argument(
        "--out",
        default=None,
        help="artifact path (default: serve_<scheduler>_<system>.json)",
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
    monitor.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to monitor (default: flexlevel)",
    )
    monitor.set_defaults(warmup_fraction=0.0)
    monitor.add_argument(
        "--window-us",
        type=float,
        default=1000.0,
        help="telemetry window width in simulated microseconds "
        "(default 1000 = 1 ms)",
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
        "--sample-every",
        type=int,
        default=1,
        help="trace every N-th request for the per-alert blame tables "
        "(default 1: all of them)",
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
    monitor.add_argument(
        "--json",
        action="store_true",
        help="print the full monitor artifact JSON to stdout",
    )
    monitor.add_argument(
        "--out",
        default=None,
        help="artifact path (default: monitor_<workload>_<system>.json)",
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
    metrics_ls.add_argument(
        "--system",
        default="flexlevel",
        help="storage system to run (default: flexlevel)",
    )
    metrics_ls.add_argument(
        "--window-us",
        type=float,
        default=1000.0,
        help="telemetry window width in simulated microseconds",
    )
    metrics_ls.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as JSON",
    )
    # A short run discovers the namespace just as well as a full one.
    metrics_ls.set_defaults(handler=_cmd_metrics_ls, requests=2000)

    profile = commands.add_parser(
        "profile",
        help="wall-clock profile of a workload replay (or CSV trace stats)",
    )
    profile.add_argument(
        "target",
        nargs="?",
        default="fin-2",
        help="workload name to profile, or a CSV trace file to summarise",
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
        "--system",
        default="flexlevel",
        help="storage system to replay (default: flexlevel)",
    )
    profile.add_argument("--requests", type=int, default=30_000)
    profile.add_argument("--blocks", type=int, default=256)
    profile.add_argument("--pe", type=float, default=6000.0)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument(
        "--channels", type=int, default=4, help="flash channels (default: 4)"
    )
    profile.add_argument(
        "--no-retry",
        action="store_true",
        help="disable the read-retry model",
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
    profile.add_argument(
        "--json",
        action="store_true",
        help="print the full repro.profile/1 artifact JSON to stdout",
    )
    profile.add_argument(
        "--out",
        default=None,
        help="artifact path (default: profile_<workload>_<mode>.json)",
    )
    profile.set_defaults(handler=_cmd_profile)

    args = parser.parse_args(argv)
    from repro.errors import ConfigurationError

    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # Bad names and values from any layer (unknown workload in a
        # tenant mix, malformed mix grammar, invalid knobs) exit 2
        # instead of surfacing a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
