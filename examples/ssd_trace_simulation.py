"""System-level comparison on a trace (paper §6.2 workflow).

Builds the four storage systems on the same worn SSD, replays one of
the seven synthetic paper workloads against each, and prints the
Fig. 6(a)-style comparison plus the endurance counters of Fig. 7,
with p50/p95/p99 response-time percentiles and per-channel
utilization.  ``--channels 1 --no-retry`` runs the single FIFO queue
the paper's Fig. 6/7 drivers use.

Run:  python examples/ssd_trace_simulation.py [workload] [n_requests]
          [--channels N] [--no-retry]
"""

import argparse

from repro.baselines import SystemConfig, build_system, system_names
from repro.core.level_adjust import LevelAdjustPolicy
from repro.ftl import SsdConfig
from repro.sim import DesSimulationEngine, ReadRetryModel
from repro.traces import make_workload, workload_names


def main(
    workload_name: str = "fin-2",
    n_requests: int = 30_000,
    n_channels: int = 4,
    retries: bool = True,
) -> None:
    if workload_name not in workload_names():
        raise SystemExit(f"unknown workload {workload_name!r}; pick from {workload_names()}")

    ssd_config = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)
    workload = make_workload(workload_name, ssd_config.logical_pages)
    trace = workload.generate(n_requests, seed=1)
    policy = LevelAdjustPolicy()  # shared BER oracle; evaluations are cached

    print(
        f"workload {workload_name}: {n_requests} requests, "
        f"{workload.footprint_pages} hot pages of {ssd_config.logical_pages} logical "
        f"({ssd_config.logical_capacity_bytes / 2**30:.1f} GiB drive at 6000 P/E), "
        f"{n_channels} channel(s), read retry {'on' if retries else 'off'}"
    )
    print()
    print(
        f"{'system':16s} {'mean resp (us)':>15s} {'read resp':>10s} "
        f"{'extra lvls':>10s} {'WA':>5s} {'erases':>7s} {'promos':>7s}"
        f" {'p50':>8s} {'p95':>8s} {'p99':>8s} {'util':>6s}"
    )

    baseline_mean = None
    for name in system_names():
        config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=512,
        )
        system = build_system(name, config, level_adjust=policy)
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.25,
            n_channels=n_channels,
            retry_model=ReadRetryModel() if retries else None,
        )
        result = engine.run(trace, workload_name)
        mean = result.mean_response_us()
        if baseline_mean is None:
            baseline_mean = mean
        percentiles = result.percentiles()
        utilization = result.channel_utilization()
        print(
            f"{name:16s} {mean:12.1f} ({mean / baseline_mean:4.2f}x) "
            f"{result.mean_read_response_us():10.1f} "
            f"{result.stats['mean_extra_levels']:10.2f} "
            f"{result.stats['write_amplification']:5.2f} "
            f"{result.stats['erase_blocks']:7.0f} "
            f"{result.stats['promotions']:7.0f}"
            f" {percentiles['p50_response_us']:8.1f}"
            f" {percentiles['p95_response_us']:8.1f}"
            f" {percentiles['p99_response_us']:8.1f}"
            f" {sum(utilization) / len(utilization):6.2f}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", nargs="?", default="fin-2")
    parser.add_argument("n_requests", nargs="?", type=int, default=30_000)
    parser.add_argument(
        "--channels", type=int, default=4, help="flash channels (default: 4)"
    )
    parser.add_argument(
        "--no-retry", action="store_true", help="disable the read-retry model"
    )
    args = parser.parse_args()
    main(
        workload_name=args.workload,
        n_requests=args.n_requests,
        n_channels=args.channels,
        retries=not args.no_retry,
    )
