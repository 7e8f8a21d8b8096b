"""Bring-your-own workload: trace files and custom generators.

Shows the trace toolchain: define a synthetic workload, persist it to
the CSV trace format, reload it, and evaluate how much FlexLevel helps
*this* workload compared to LDPC-in-SSD — the adoption question a
storage engineer would actually ask.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

from repro.baselines import SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.ftl import SsdConfig
from repro.sim import DesSimulationEngine
from repro.traces import SyntheticWorkload, read_trace_csv, write_trace_csv


def main() -> None:
    ssd_config = SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)

    # A read-mostly key-value-store-like workload: hot keys, small reads.
    workload = SyntheticWorkload(
        name="kv-store",
        footprint_pages=int(ssd_config.logical_pages * 0.4),
        read_fraction=0.92,
        read_zipf_s=1.05,
        write_zipf_s=0.9,
        mean_request_pages=1.2,
        sequential_fraction=0.02,
        mean_interarrival_us=900.0,
    )
    records = workload.generate(25_000, seed=3)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kv-store.csv"
        count = write_trace_csv(path, records)
        print(f"wrote {count} records to {path.name}; reloading...")
        trace = list(read_trace_csv(path))

    policy = LevelAdjustPolicy()
    results = {}
    for name in ("ldpc-in-ssd", "flexlevel"):
        config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=512,
        )
        system = build_system(name, config, level_adjust=policy)
        # One channel without read retry: the paper's single-queue model.
        engine = DesSimulationEngine(
            system, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        results[name] = engine.run(trace, workload.name)

    ldpc, flex = results["ldpc-in-ssd"], results["flexlevel"]
    gain = 1.0 - flex.mean_response_us() / ldpc.mean_response_us()
    print()
    print(f"{'':20s} {'ldpc-in-ssd':>12s} {'flexlevel':>12s}")
    print(f"{'mean response (us)':20s} {ldpc.mean_response_us():12.1f} {flex.mean_response_us():12.1f}")
    print(f"{'mean extra levels':20s} {ldpc.stats['mean_extra_levels']:12.2f} {flex.stats['mean_extra_levels']:12.2f}")
    print(f"{'flash programs':20s} {ldpc.stats['total_program_pages']:12.0f} {flex.stats['total_program_pages']:12.0f}")
    print()
    loss = 0.25 * flex.stats["reduced_logical_pages"] / ssd_config.logical_pages
    print(f"FlexLevel would speed this workload up by {gain:.0%} "
          f"at a capacity cost of {loss:.1%}.")


if __name__ == "__main__":
    main()
