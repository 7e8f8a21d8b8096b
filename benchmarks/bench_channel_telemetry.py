"""Channel-telemetry overhead: requests/sec with and without the sink.

The media telemetry (docs/CHANNEL.md) promises that attaching a
:class:`repro.obs.channel.ChannelTelemetry` costs a handful of scalar
array updates plus one binomial draw per flash read — cheap enough to
leave on for any observability run.  This bench pins that promise: the
DES engine's wall requests/sec with telemetry attached must stay within
a few percent of the detached run, and the simulated event counts must
be byte-identical (the estimator never touches simulation RNG
streams).  In quick mode both wall rates also have a floor, a wide
band below their recorded values, so a host faster than the recorded
one never fails it.

Best-of-N minimum wall timing, same as the event-loop throughput
bench: the minimum is the least noisy estimator on a busy runner.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.obs.channel import ChannelTelemetry
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    observe,
)
from repro.traces.workloads import make_workload

WORKLOAD = "fin-2"
N_CHANNELS = 4
N_REQUESTS = 4_000 if QUICK else 30_000
ROUNDS = 2 if QUICK else 3

#: Gate band for the attached/detached throughput ratio.  The declared
#: budget is 10 % overhead (one binomial draw plus ~a dozen scalar
#: accumulator updates per flash read, measured in situ); quick mode's
#: tiny traces are noisier, so the assertion widens there.
OVERHEAD_BUDGET = 0.25 if QUICK else 0.10

#: Quick-mode wall results, recorded on a 2-core x86 host: requests/s
#: detached ("off") and attached ("on"), and their ratio.
RECORDED_REQUESTS_PER_S = {"off": 19199.915151822017, "on": 16276.027758908322}
RECORDED_RATIO = 0.8477135253050206

#: Relative bands below the recorded values: runners differ by far
#: more than telemetry changes do.
WALL_TOLERANCE = 0.60
RATIO_TOLERANCE = 0.20


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "events_total_off": 8000.0,
    "events_total_on": 8000.0,
}


def _build_engine(policy, telemetry):
    ssd_config = SsdConfig(
        n_blocks=256, pages_per_block=64, initial_pe_cycles=6000
    )
    workload = make_workload(WORKLOAD, ssd_config.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
    config = SystemConfig(
        ssd=ssd_config,
        footprint_pages=workload.footprint_pages,
        buffer_pages=512,
    )
    system = build_system("flexlevel", config, level_adjust=policy)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=N_CHANNELS,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        observers=observe(channel_telemetry=telemetry),
    )
    return engine, trace


def _make_telemetry():
    return ChannelTelemetry(256, page_bits=16 * 1024 * 8, seed=2015)


def run_overhead(policy):
    """Best-of-ROUNDS wall results, detached vs attached."""
    best = {}
    fingerprints = set()
    for kind in ("off", "on"):
        for _ in range(ROUNDS):
            telemetry = _make_telemetry() if kind == "on" else None
            engine, trace = _build_engine(policy, telemetry)
            result = engine.run(trace, WORKLOAD)
            if telemetry is not None:
                fingerprints.add(telemetry.to_dict()["fingerprint"])
            prev = best.get(kind)
            if prev is None or result.wall_loop_s < prev.wall_loop_s:
                best[kind] = result
    return best, fingerprints


def test_channel_telemetry_overhead(results_dir, shared_policy):
    best, fingerprints = run_overhead(shared_policy)
    off, on = best["off"], best["on"]
    ratio = on.wall_requests_per_s() / off.wall_requests_per_s()

    lines = [
        f"{WORKLOAD}, {N_REQUESTS} requests, best of {ROUNDS} runs",
        "",
        f"{'telemetry':10s} {'events':>9s} {'loop s':>8s} {'requests/s':>11s}",
        f"{'off':10s} {off.wall_events:9d} {off.wall_loop_s:8.3f} "
        f"{off.wall_requests_per_s():11.0f}",
        f"{'on':10s} {on.wall_events:9d} {on.wall_loop_s:8.3f} "
        f"{on.wall_requests_per_s():11.0f}",
        "",
        f"attached/detached throughput ratio: {ratio:.3f}",
    ]
    write_table(results_dir, "channel_telemetry", lines)

    # Determinism pins: identical event counts with and without the
    # sink, and same-seed telemetry runs share one fingerprint.
    metrics = {
        "events_total_off": float(off.wall_events),
        "events_total_on": float(on.wall_events),
    }
    if QUICK:
        assert metrics == QUICK_PINS
        for kind, recorded in RECORDED_REQUESTS_PER_S.items():
            floor = (1.0 - WALL_TOLERANCE) * recorded
            assert best[kind].wall_requests_per_s() >= floor, kind
        assert ratio >= (1.0 - RATIO_TOLERANCE) * RECORDED_RATIO

    # Attaching telemetry never changes the simulated event stream.
    assert on.wall_events == off.wall_events
    # Same seed, same artifact, across every attached round.
    assert len(fingerprints) == 1
    # The declared overhead budget.
    assert ratio >= 1.0 - OVERHEAD_BUDGET
