"""Health-monitor detection latency and false-positive bound.

Runs the DES engine with the online :class:`HealthMonitor` attached in
two configurations and pins the alerting behaviour:

* **fault_free** — a fresh drive (0 P/E), faults disabled.  The stock
  rule set must stay completely silent; any alert here is a false
  positive and the regression gate fails the run.
* **fault** — a worn drive (16k P/E) under 100x fault-injection
  pressure.  The detectors must fire, and the *first alert window* —
  the windows-to-detection latency of the earliest genuine signal —
  is pinned so detector retunes that slow reaction down show up as a
  regression, not a silent behaviour change.

Everything the monitor consumes is virtual-time windowed telemetry, so
both alert streams are byte-deterministic per seed; the fingerprint is
emitted alongside the counts for cross-machine comparison (as a table
line, not a gated metric — hashes shift legitimately whenever rules
or thresholds change).
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.faults import FaultConfig, FaultInjector
from repro.ftl.config import SsdConfig
from repro.obs import MetricsRegistry, WindowedRecorder
from repro.obs.monitor import HealthMonitor, monitor_fingerprint
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    observe,
)
from repro.traces.workloads import make_workload

N_CHANNELS = 4
N_REQUESTS = 3_000 if QUICK else 20_000
WORKLOAD = "fin-2"
WINDOW_US = 1_000.0
#: The faulty leg matches bench_fault_resilience's stressed corner.
FAULT_PE_CYCLES = 16_000
FAULT_SCALE = 100.0


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "fault.alerts": 30.0,
    "fault.first_alert_window": 14.0,
    "fault.uncorrectable_alerts": 19.0,
    "fault.windows_closed": 4261.0,
    "fault_free.alerts": 0.0,
}


def run_monitored(shared_policy, faulty: bool):
    pe = FAULT_PE_CYCLES if faulty else 0
    ssd_config = SsdConfig(
        n_blocks=256, pages_per_block=64, initial_pe_cycles=pe
    )
    workload = make_workload(WORKLOAD, ssd_config.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
    injector = None
    if faulty:
        injector = FaultInjector(FaultConfig(enabled=True).scaled(FAULT_SCALE))
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
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=WINDOW_US)
    monitor = HealthMonitor(recorder, registry=registry).attach()
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=N_CHANNELS,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        observers=observe(registry=registry, recorder=recorder),
    )
    engine.run(trace, WORKLOAD)
    return monitor


def test_monitor_detection(results_dir, shared_policy):
    clean = run_monitored(shared_policy, faulty=False)
    faulty = run_monitored(shared_policy, faulty=True)

    first_window = faulty.alerts[0].window if faulty.alerts else -1
    by_rule: dict[str, int] = {}
    for alert in faulty.alerts:
        by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
    lines = [
        f"flexlevel, DES engine, {N_CHANNELS} channels, {WORKLOAD}, "
        f"{N_REQUESTS} requests, window {WINDOW_US:g} us",
        "",
        f"{'config':>12s} {'windows':>8s} {'alerts':>7s} "
        f"{'first':>6s} {'fingerprint':>17s}",
    ]
    for label, monitor in (("fault_free", clean), ("fault", faulty)):
        first = monitor.alerts[0].window if monitor.alerts else -1
        lines.append(
            f"{label:>12s} {monitor.windows_closed:8d} "
            f"{monitor.n_alerts:7d} {first:6d} "
            f"{monitor_fingerprint(monitor.to_dict()):>17s}"
        )
    lines.append("")
    lines.extend(
        f"  {rule}: {count}" for rule, count in sorted(by_rule.items())
    )
    write_table(results_dir, "monitor_detection", lines)

    metrics = {
        "fault_free.alerts": float(clean.n_alerts),
        "fault.alerts": float(faulty.n_alerts),
        "fault.first_alert_window": float(first_window),
        "fault.uncorrectable_alerts": float(
            by_rule.get("uncorrectable", 0)
        ),
        "fault.windows_closed": float(faulty.windows_closed),
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # The zero-false-positive bound and the detection floor, asserted
    # directly so full-mode runs, which have no pins, fail loudly too.
    assert clean.n_alerts == 0
    assert faulty.n_alerts >= 1
    assert first_window >= 0
    assert by_rule.get("uncorrectable", 0) >= 1
