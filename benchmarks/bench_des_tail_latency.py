"""Tail latency under the DES engine: FlexLevel vs the baselines.

The paper's Fig. 6 argues means, but the system-level payoff of cutting
per-read sensing latency is largest in the tail: queueing amplifies the
slow reads, and read retry stretches them further.  This bench replays
the paper workloads through the discrete-event multi-channel engine
(4 channels, read retry on) and reports p50/p95/p99 response times and
per-channel utilization for all four storage systems.

Quick mode (``REPRO_BENCH_QUICK=1``)
shrinks the workload set and trace length: import-rot and wiring
coverage only, not meaningful numbers.
"""

import numpy as np
from conftest import BENCH_SEED, BENCH_WORKLOADS, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system, system_names
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel
from repro.traces.workloads import make_workload

N_CHANNELS = 4
N_REQUESTS = 3_000 if QUICK else 20_000


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "fin-2.baseline.mean_response_us": 551.1049915130146,
    "fin-2.baseline.p99_response_us": 2000.0,
    "fin-2.flexlevel.mean_response_us": 355.9620062859196,
    "fin-2.flexlevel.p99_response_us": 1460.0,
    "flexlevel_vs_baseline_p99_ratio": 0.7101295599335522,
    "web-1.baseline.mean_response_us": 1388.3335152371592,
    "web-1.baseline.p99_response_us": 5139.147120060655,
    "web-1.flexlevel.mean_response_us": 886.6182911641328,
    "web-1.flexlevel.p99_response_us": 3547.3431679606315,
}


def run_matrix(shared_policy):
    ssd_config = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)
    results = {}
    for workload_name in BENCH_WORKLOADS:
        workload = make_workload(workload_name, ssd_config.logical_pages)
        trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
        for system_name in system_names():
            config = SystemConfig(
                ssd=ssd_config,
                footprint_pages=workload.footprint_pages,
                buffer_pages=512,
            )
            system = build_system(system_name, config, level_adjust=shared_policy)
            engine = DesSimulationEngine(
                system,
                warmup_fraction=0.25,
                n_channels=N_CHANNELS,
                retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
            )
            results[(workload_name, system_name)] = engine.run(trace, workload_name)
    return results


def test_des_tail_latency(results_dir, shared_policy):
    results = run_matrix(shared_policy)

    lines = [
        f"DES engine, {N_CHANNELS} channels, read retry on, "
        f"{N_REQUESTS} requests per workload",
        "",
        f"{'workload':10s} {'system':18s} {'mean':>9s} {'p50':>9s} "
        f"{'p95':>9s} {'p99':>9s} {'mean util':>9s} {'per-channel util':>28s}",
    ]
    for workload_name in BENCH_WORKLOADS:
        for system_name in system_names():
            result = results[(workload_name, system_name)]
            percentiles = result.percentiles()
            utilization = result.channel_utilization()
            per_channel = " ".join(f"{u:5.2f}" for u in utilization)
            lines.append(
                f"{workload_name:10s} {system_name:18s} "
                f"{result.mean_response_us():9.1f} "
                f"{percentiles['p50_response_us']:9.1f} "
                f"{percentiles['p95_response_us']:9.1f} "
                f"{percentiles['p99_response_us']:9.1f} "
                f"{float(np.mean(utilization)):9.2f} {per_channel:>28s}"
            )
        lines.append("")

    p99_ratios = []
    for workload_name in BENCH_WORKLOADS:
        base = results[(workload_name, "baseline")].percentile_response_us(99)
        flex = results[(workload_name, "flexlevel")].percentile_response_us(99)
        if base > 0:
            p99_ratios.append(flex / base)
    mean_ratio = float(np.mean(p99_ratios))
    lines.append(f"flexlevel p99 / baseline p99 (mean over workloads): {mean_ratio:.3f}")
    write_table(results_dir, "des_tail_latency", lines)

    metrics = {"flexlevel_vs_baseline_p99_ratio": mean_ratio}
    for workload_name in BENCH_WORKLOADS:
        for system_name in ("baseline", "flexlevel"):
            result = results[(workload_name, system_name)]
            prefix = f"{workload_name}.{system_name}"
            metrics[f"{prefix}.mean_response_us"] = result.mean_response_us()
            metrics[f"{prefix}.p99_response_us"] = result.percentiles()[
                "p99_response_us"
            ]
    if QUICK:
        assert metrics == QUICK_PINS

    # Every (workload, system) cell must have produced sane tail metrics.
    for result in results.values():
        percentiles = result.percentiles()
        assert (
            0.0
            < percentiles["p50_response_us"]
            <= percentiles["p95_response_us"]
            <= percentiles["p99_response_us"]
        )
        utilization = result.channel_utilization()
        assert len(utilization) == N_CHANNELS
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utilization)
    # The paper's story holds in the tail too: adaptive sensing plus
    # HLO placement beats worst-case provisioning at p99.
    assert mean_ratio < 1.0
