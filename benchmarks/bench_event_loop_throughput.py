"""Event-loop throughput floor: requests/sec of the engine.

This bench is the regression gate an event-loop speed-up must beat and
that every unrelated change must not erode.  It replays one paper
workload through the DES engine in two layouts — four channels with
read retry (the CLI default) and the single FIFO queue without retry
that the Fig. 6/7 drivers, the ablations and the crash bench run — and
records wall-clock requests/sec straight from the engine's own loop
accounting (``DesSimulationResult.wall_*``, the same counters behind
the ``sim.wall.*`` gauges).
Requests/sec, not events/sec, is the gated rate: the event count per
request is a design choice of the loop (an arrival and a completion),
so an events/sec floor would reward scheduling events that change
nothing.

Wall throughput is machine-dependent, so its quick-mode floor is a
wide band below the recorded rate — the gate catches "the loop got
several times slower", not runner-to-runner jitter — while the
simulated event counts are exact determinism pins: same seed, same
trace, same event count, on any machine.

Quick mode shrinks the trace: wiring coverage and a coarse floor, not
a careful measurement.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel
from repro.traces.workloads import make_workload

WORKLOAD = "fin-2"
N_CHANNELS = 4
N_REQUESTS = 4_000 if QUICK else 30_000
#: Best-of-N wall timing: the minimum is the least noisy estimator of
#: the loop's true cost on a busy CI runner.
ROUNDS = 2 if QUICK else 3

#: Quick-mode requests/s per layout, recorded on a 2-core x86 host.
RECORDED_REQUESTS_PER_S = {"des": 23090.23135378909, "single": 34734.98974294814}

#: Relative band below the recorded rates.  Heterogeneous runners
#: differ by far more than simulation changes do, so the floor only
#: fires on a multiple-x slowdown — the determinism pins below carry
#: the tight comparisons.
WALL_TOLERANCE = 0.60


#: Engine layouts: name -> (channels, read retry).
LAYOUTS = {"des": (N_CHANNELS, True), "single": (1, False)}


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "des_events_per_request": 2.0,
    "des_events_total": 8000.0,
    "single_events_total": 8000.0,
}


def _build_engine(layout: str, policy):
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
    n_channels, retry = LAYOUTS[layout]
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=n_channels,
        retry_model=(
            ReadRetryModel(ReadRetryConfig(seed=2015)) if retry else None
        ),
    )
    return engine, trace


def run_throughput(policy):
    """Best-of-ROUNDS wall throughput per layout (fresh system each run)."""
    best = {}
    for layout in LAYOUTS:
        for _ in range(ROUNDS):
            engine, trace = _build_engine(layout, policy)
            result = engine.run(trace, WORKLOAD)
            prev = best.get(layout)
            if prev is None or result.wall_loop_s < prev.wall_loop_s:
                best[layout] = result
    return best


def test_event_loop_throughput(results_dir, shared_policy):
    best = run_throughput(shared_policy)
    des, single = best["des"], best["single"]

    lines = [
        f"{WORKLOAD}, {N_REQUESTS} requests, best of {ROUNDS} runs",
        "",
        f"{'layout':8s} {'events':>9s} {'loop s':>8s} {'requests/s':>11s}",
    ]
    for layout, result in best.items():
        lines.append(
            f"{layout:8s} {result.wall_events:9d} {result.wall_loop_s:8.3f} "
            f"{result.wall_requests_per_s():11.0f}"
        )
    write_table(results_dir, "event_loop_throughput", lines)

    # Determinism pins: simulated event counts depend only on the seed
    # and config, never on the machine.
    metrics = {
        "des_events_total": float(des.wall_events),
        "des_events_per_request": des.wall_events / des.wall_requests,
        "single_events_total": float(single.wall_events),
    }
    if QUICK:
        assert metrics == QUICK_PINS
        for layout, recorded in RECORDED_REQUESTS_PER_S.items():
            floor = (1.0 - WALL_TOLERANCE) * recorded
            assert best[layout].wall_requests_per_s() >= floor, layout

    for result in best.values():
        # The loop actually ran and accounted its wall time.
        assert result.wall_requests == N_REQUESTS
        # Every request is one arrival and one completion event.
        assert result.wall_events == 2 * N_REQUESTS
        assert result.wall_loop_s > 0.0
        assert result.wall_requests_per_s() > 0.0
