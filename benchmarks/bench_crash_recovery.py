"""Crash → recover → resume cost: remount time vs checkpoint cadence.

One seeded sudden-power-off cuts a write-heavy run mid-flight; the
remount replays checkpoint + journal (cross-checked against the full
OOB scan — the crash invariant).  Sweeping the checkpoint interval
traces the paper-style trade-off: tighter checkpoints shorten the
journal and the remount, at the price of more metadata traffic
(checkpoints taken).  A rate-mode cycle run (several cuts, resume to
completion) rides along as the end-to-end robustness probe.

Quick mode shrinks the trace and interval set: wiring coverage, not
meaningful numbers.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig
from repro.faults.power import PowerConfig
from repro.ftl.config import SsdConfig
from repro.ftl.recovery import RecoveryConfig
from repro.sim.crash import run_with_crashes
from repro.traces.workloads import make_workload

N_REQUESTS = 2_000 if QUICK else 10_000
INTERVALS_US = (
    (10_000.0, 1e12) if QUICK else (10_000.0, 100_000.0, 1_000_000.0, 1e12)
)
WORKLOAD = "prj-1"  # the write-heaviest paper mix: real journal growth
SPO_RATE_PER_S = 2.0
#: One channel without read retry: the single FIFO queue.
LAYOUT = {"n_channels": 1, "retry": False}


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "cycles.crashes": 4.0,
    "cycles.total_recovery_us": 581162.0,
    "interval_10000.journal_entries": 2.0,
    "interval_10000.recovery_time_us": 129004.0,
    "interval_1e+12.journal_entries": 775.0,
    "interval_1e+12.recovery_time_us": 130550.0,
}


def make_setup():
    ssd_config = SsdConfig(n_blocks=256, pages_per_block=64)
    workload = make_workload(WORKLOAD, ssd_config.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
    config = SystemConfig(
        ssd=ssd_config,
        footprint_pages=workload.footprint_pages,
        buffer_pages=128,
    )
    crash_us = trace[-1].timestamp_us * 0.5
    return config, trace, crash_us


def run_sweep():
    config, trace, crash_us = make_setup()
    fixed = {}
    for interval in INTERVALS_US:
        run = run_with_crashes(
            "flexlevel",
            config,
            trace,
            PowerConfig(enabled=True, at_us=crash_us),
            recovery=RecoveryConfig(checkpoint_interval_us=interval),
            **LAYOUT,
        )
        fixed[interval] = run
    cycles = run_with_crashes(
        "flexlevel",
        config,
        trace,
        PowerConfig(
            enabled=True,
            rate_per_s=SPO_RATE_PER_S,
            seed=BENCH_SEED,
            max_crashes=4,
        ),
        recovery=RecoveryConfig(checkpoint_interval_us=INTERVALS_US[0]),
        **LAYOUT,
    )
    return fixed, cycles


def test_crash_recovery(results_dir):
    fixed, cycles = run_sweep()

    lines = [
        f"flexlevel, single queue, {WORKLOAD}, {N_REQUESTS} requests, "
        "one power cut at 50% of the trace span",
        "",
        f"{'interval us':>12s} {'ckpts':>6s} {'journal':>8s} "
        f"{'replayed':>9s} {'plp':>5s} {'recovery us':>12s}",
    ]
    metrics = {}
    for interval in INTERVALS_US:
        report = fixed[interval].reports[0]
        manager = fixed[interval].final_system.ssd.recovery
        lines.append(
            f"{interval:12.0f} {manager.checkpoints_taken:6d} "
            f"{report.journal_entries:8d} {report.journal_replayed:9d} "
            f"{report.plp_pages:5d} {report.recovery_time_us:12.1f}"
        )
        prefix = f"interval_{interval:g}"
        metrics[f"{prefix}.recovery_time_us"] = report.recovery_time_us
        metrics[f"{prefix}.journal_entries"] = float(report.journal_entries)
    lines += [
        "",
        f"rate-mode cycles: {cycles.crashes} cuts, "
        f"{sum(r.recovery_time_us for r in cycles.reports):.1f} us total "
        f"recovery, final leg "
        f"{'completed' if not cycles.final.crashed else 'crashed'}",
    ]
    metrics["cycles.crashes"] = float(cycles.crashes)
    metrics["cycles.total_recovery_us"] = sum(
        r.recovery_time_us for r in cycles.reports
    )
    write_table(results_dir, "crash_recovery", lines)
    if QUICK:
        assert metrics == QUICK_PINS

    # Every remount went through checkpoint + journal with the scan
    # cross-check on (verify_scan defaults True): the sweep completing
    # without SimulationError IS the crash invariant.
    for interval in INTERVALS_US:
        run = fixed[interval]
        assert run.crashes == 1
        assert not run.final.crashed
        report = run.reports[0]
        assert report.strategy == "journal"
        assert report.scan_matches_replay
    # The headline scaling claim: a longer checkpoint interval leaves a
    # longer journal to replay, so remount time grows with it — and the
    # checkpoint count shrinks.
    entries = [fixed[i].reports[0].journal_entries for i in INTERVALS_US]
    times = [fixed[i].reports[0].recovery_time_us for i in INTERVALS_US]
    ckpts = [
        fixed[i].final_system.ssd.recovery.checkpoints_taken
        for i in INTERVALS_US
    ]
    assert entries == sorted(entries)
    assert entries[0] < entries[-1]
    assert times[0] < times[-1]
    assert ckpts == sorted(ckpts, reverse=True)
    assert ckpts[0] > ckpts[-1]
    # The cycle run survived every cut and finished the trace.
    assert cycles.crashes >= 1
    assert not cycles.final.crashed
