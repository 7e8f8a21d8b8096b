"""Resilience under fault injection: degradation instead of crashes.

Sweeps the seeded fault injector's pressure (``FaultConfig.scaled``)
through the DES engine on a worn drive and reports, per fault scale,
the uncorrectable-read rate, blocks retired, scrub activity, tail
latency and whether the drive ended in read-only degraded mode.  Scale
0 runs with faults disabled and must match a fault-free build exactly
— the regression gate on this bench is what keeps the fault subsystem
honest about its "byte-identical when off" contract.

Quick mode shrinks the trace and scale set: wiring coverage, not
meaningful numbers.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.faults import FaultConfig, FaultInjector
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel
from repro.traces.workloads import make_workload

N_CHANNELS = 4
N_REQUESTS = 3_000 if QUICK else 20_000
FAULT_SCALES = (0.0, 10.0, 100.0) if QUICK else (0.0, 1.0, 10.0, 100.0)
#: Worn drive: high P/E pushes pages toward the sensing-ladder top,
#: where ladder exhaustion (the uncorrectable precondition) happens.
PE_CYCLES = 16_000
WORKLOAD = "fin-2"


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "scale_0.blocks_retired": 0.0,
    "scale_0.p99_response_us": 2885.896945086044,
    "scale_0.read_only": 0.0,
    "scale_0.scrub_refreshed_pages": 0.0,
    "scale_0.uncorrectable_rate": 0.0,
    "scale_10.blocks_retired": 4.0,
    "scale_10.p99_response_us": 2409.6301925379257,
    "scale_10.read_only": 0.0,
    "scale_10.scrub_refreshed_pages": 1054.0,
    "scale_10.uncorrectable_rate": 0.009597806215722121,
    "scale_100.blocks_retired": 5.0,
    "scale_100.p99_response_us": 2379.110013781726,
    "scale_100.read_only": 1.0,
    "scale_100.scrub_refreshed_pages": 160.0,
    "scale_100.uncorrectable_rate": 0.06444241316270567,
}


def run_sweep(shared_policy):
    ssd_config = SsdConfig(
        n_blocks=256, pages_per_block=64, initial_pe_cycles=PE_CYCLES
    )
    workload = make_workload(WORKLOAD, ssd_config.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
    results = {}
    for scale in FAULT_SCALES:
        injector = None
        if scale > 0:
            injector = FaultInjector(FaultConfig(enabled=True).scaled(scale))
        config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=512,
        )
        system = build_system(
            "flexlevel",
            config,
            level_adjust=shared_policy,
            fault_injector=injector,
        )
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.25,
            n_channels=N_CHANNELS,
            retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        )
        results[scale] = (engine.run(trace, WORKLOAD), system)
    return results


def test_fault_resilience(results_dir, shared_policy):
    results = run_sweep(shared_policy)

    lines = [
        f"flexlevel, DES engine, {N_CHANNELS} channels, {WORKLOAD}, "
        f"{N_REQUESTS} requests, {PE_CYCLES} P/E",
        "",
        f"{'scale':>6s} {'p99':>9s} {'uncorr':>7s} {'rate':>9s} "
        f"{'retired':>8s} {'scrubbed':>9s} {'rejected':>9s} {'mode':>10s}",
    ]
    metrics = {}
    for scale in FAULT_SCALES:
        result, system = results[scale]
        stats = system.ssd.stats
        mode = "read-only" if system.ssd.read_only else "normal"
        lines.append(
            f"{scale:6.0f} {result.percentile_response_us(99):9.1f} "
            f"{result.uncorrectable_reads:7d} {result.uncorrectable_rate():9.2e} "
            f"{stats.blocks_retired:8d} {stats.scrub_refreshed_pages:9d} "
            f"{stats.rejected_writes:9d} {mode:>10s}"
        )
        prefix = f"scale_{scale:g}"
        metrics[f"{prefix}.p99_response_us"] = result.percentile_response_us(99)
        metrics[f"{prefix}.uncorrectable_rate"] = result.uncorrectable_rate()
        metrics[f"{prefix}.blocks_retired"] = float(stats.blocks_retired)
        metrics[f"{prefix}.read_only"] = float(system.ssd.read_only)
        metrics[f"{prefix}.scrub_refreshed_pages"] = float(
            stats.scrub_refreshed_pages
        )
    write_table(results_dir, "fault_resilience", lines)
    if QUICK:
        assert metrics == QUICK_PINS

    # Scale 0 is a clean run: no fault counters, no fault stats keys.
    clean_result, clean_system = results[0.0]
    assert clean_system.ssd.fault_injector is None
    assert clean_result.uncorrectable_reads == 0
    assert "uncorrectable_reads" not in clean_result.stats
    assert clean_system.ssd.stats.blocks_retired == 0
    assert not clean_system.ssd.read_only
    # The highest pressure visibly degrades — and completes without
    # raising (that it returned at all is the resilience claim).
    stressed_result, stressed_system = results[FAULT_SCALES[-1]]
    assert stressed_system.ssd.stats.blocks_retired > 0
    assert stressed_result.uncorrectable_reads > 0
    # Fault pressure can only grow the retirement count.
    retired = [
        results[scale][1].ssd.stats.blocks_retired for scale in FAULT_SCALES
    ]
    assert retired == sorted(retired)
