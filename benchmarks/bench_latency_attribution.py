"""Blame decomposition of tail latency: FlexLevel vs the baseline.

Where ``bench_des_tail_latency`` measures *how much* faster FlexLevel's
tail is, this bench measures *why*: it replays the paper workloads
through the DES engine with every post-warmup request traced
(``sample_every=1``), runs the critical-path attribution engine over
the span trees, and reports the blame — what share of total and p99+
latency each system spends on LDPC decode and retry sensing versus
queueing and GC.  The paper's claim in blame terms: FlexLevel's
adaptive sensing cuts the absolute decode-plus-retry microseconds well
below the worst-case-provisioned baseline's.  (The *fraction* can move
the other way — FlexLevel shrinks total latency faster than decode
time — which is exactly why both views are reported.)

All emitted metrics are virtual-time fractions, so a fixed seed and
config reproduce them exactly — safe for the regression gate.

Quick mode shrinks the trace length: wiring coverage, not meaningful
numbers.
"""

import pytest
from conftest import BENCH_SEED, BENCH_WORKLOADS, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.obs import AttributionReport, Tracer
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    observe,
)
from repro.traces.workloads import make_workload

N_CHANNELS = 4
N_REQUESTS = 2_000 if QUICK else 12_000
SYSTEMS = ("baseline", "flexlevel")

#: The causes the paper's argument is about: sensing-ladder time the
#: baseline's worst-case provisioning spends and FlexLevel avoids.
DECODE_CAUSES = ("ldpc_decode", "retry")


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "fin-2.baseline.decode_retry_fraction": 0.12207147654027546,
    "fin-2.baseline.p99_decode_retry_fraction": 0.19465952222939192,
    "fin-2.flexlevel.decode_retry_fraction": 0.1658023191282591,
    "fin-2.flexlevel.p99_decode_retry_fraction": 0.1981582121308626,
    "flexlevel_vs_baseline_decode_retry_us_ratio": 0.8990202631393794,
    "web-1.baseline.decode_retry_fraction": 0.09955586160124218,
    "web-1.baseline.p99_decode_retry_fraction": 0.05151850519837746,
    "web-1.flexlevel.decode_retry_fraction": 0.1427540687126188,
    "web-1.flexlevel.p99_decode_retry_fraction": 0.08653750030914033,
}


def run_reports(shared_policy):
    ssd_config = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)
    reports = {}
    for workload_name in BENCH_WORKLOADS:
        workload = make_workload(workload_name, ssd_config.logical_pages)
        trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
        for system_name in SYSTEMS:
            config = SystemConfig(
                ssd=ssd_config,
                footprint_pages=workload.footprint_pages,
                buffer_pages=512,
            )
            system = build_system(system_name, config, level_adjust=shared_policy)
            tracer = Tracer(sample_every=1, keep_slowest=0)
            engine = DesSimulationEngine(
                system,
                warmup_fraction=0.25,
                n_channels=N_CHANNELS,
                retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
                observers=observe(tracer=tracer),
            )
            engine.run(trace, workload_name)
            reports[(workload_name, system_name)] = AttributionReport.from_spans(
                tracer.spans
            )
    return reports


def decode_fraction(report, band="all"):
    table = report.to_dict()["bands"][band]["blame_fraction"]
    return sum(table[cause] for cause in DECODE_CAUSES)


def decode_us(report, band="all"):
    table = report.to_dict()["bands"][band]["blame_us"]
    return sum(table[cause] for cause in DECODE_CAUSES)


def test_latency_attribution(results_dir, shared_policy):
    reports = run_reports(shared_policy)

    lines = [
        f"DES engine, {N_CHANNELS} channels, read retry on, every request "
        f"attributed ({N_REQUESTS} requests per workload)",
        "",
        f"{'workload':10s} {'system':12s} {'band':9s} {'queue':>7s} "
        f"{'gc':>7s} {'sense':>7s} {'decode':>7s} {'retry':>7s} {'other':>7s}",
    ]
    for workload_name in BENCH_WORKLOADS:
        for system_name in SYSTEMS:
            report = reports[(workload_name, system_name)].to_dict()
            for band in ("all", "p99_plus"):
                f = report["bands"][band]["blame_fraction"]
                rest = 1.0 - sum(
                    f[c]
                    for c in (
                        "queue_wait", "gc_stall", "sense", "ldpc_decode", "retry"
                    )
                )
                lines.append(
                    f"{workload_name:10s} {system_name:12s} {band:9s} "
                    f"{f['queue_wait']:7.3f} {f['gc_stall']:7.3f} "
                    f"{f['sense']:7.3f} {f['ldpc_decode']:7.3f} "
                    f"{f['retry']:7.3f} {rest:7.3f}"
                )
        lines.append("")

    ratios = []
    metrics = {}
    for workload_name in BENCH_WORKLOADS:
        base = reports[(workload_name, "baseline")]
        flex = reports[(workload_name, "flexlevel")]
        for system_name, report in (("baseline", base), ("flexlevel", flex)):
            prefix = f"{workload_name}.{system_name}"
            metrics[f"{prefix}.decode_retry_fraction"] = decode_fraction(report)
            metrics[f"{prefix}.p99_decode_retry_fraction"] = decode_fraction(
                report, "p99_plus"
            )
        ratios.append(decode_us(flex) / decode_us(base))
    mean_ratio = sum(ratios) / len(ratios)
    metrics["flexlevel_vs_baseline_decode_retry_us_ratio"] = mean_ratio
    lines.append(
        "flexlevel decode+retry us / baseline (mean over workloads): "
        f"{mean_ratio:.3f}"
    )
    write_table(results_dir, "latency_attribution", lines)
    if QUICK:
        assert metrics == QUICK_PINS

    # Attribution must be exact and the bands well-formed at any scale.
    for report in reports.values():
        for record in report.requests:
            assert record.attributed_us == pytest.approx(
                record.duration_us, rel=1e-9
            )
        for band in report.to_dict()["bands"].values():
            if band["n_requests"]:
                assert sum(band["blame_fraction"].values()) == pytest.approx(
                    1.0, rel=1e-9
                )
    # The paper's claim in blame terms needs full-scale traces; quick
    # mode is wiring coverage only.
    if not QUICK:
        assert mean_ratio < 1.0
