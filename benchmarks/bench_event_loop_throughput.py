"""Event-loop throughput floor: requests/sec of the engine.

This bench is the regression gate an event-loop speed-up must beat and
that every unrelated change must not erode.  It replays one paper
workload through the DES engine in two layouts — four channels with
read retry (the CLI default) and the single FIFO queue without retry
that the Fig. 6/7 drivers, the ablations and the crash bench run — and
records wall-clock requests/sec straight from the engine's own loop
accounting (``DesSimulationResult.wall_*``, the same counters behind
the ``sim.wall.*`` gauges and every bench's ``wall`` sidecar).
Requests/sec, not events/sec, is the gated rate: the event count per
request is a design choice of the loop (an arrival and a completion),
so an events/sec floor would reward scheduling events that change
nothing.

Wall throughput is machine-dependent, so the gated specs declare a
wide tolerance — the gate catches "the loop got several times slower",
not runner-to-runner jitter — while the simulated event counts are
exact determinism pins: same seed, same trace, same event count, on
any machine.

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

#: Relative flat band for the wall-throughput floors.  Heterogeneous
#: runners differ by far more than simulation changes do, so the gate
#: only fires on a multiple-x slowdown — the determinism pins below
#: carry the tight comparisons.
WALL_TOLERANCE = 0.60


#: Engine layouts: name -> (channels, read retry).
LAYOUTS = {"des": (N_CHANNELS, True), "single": (1, False)}


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


def test_event_loop_throughput(benchmark, results_dir, shared_policy, bench_case):
    bench_case.configure(
        workload=WORKLOAD,
        n_requests=N_REQUESTS,
        n_channels=N_CHANNELS,
        rounds=ROUNDS,
        retry_seed=2015,
    )
    best = benchmark.pedantic(
        run_throughput, args=(shared_policy,), rounds=1, iterations=1
    )
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

    metrics = {
        # Wall-throughput floors (wide band, higher is better).
        "des_requests_per_s": des.wall_requests_per_s(),
        "single_requests_per_s": single.wall_requests_per_s(),
        # Determinism pins: simulated event counts depend only on the
        # seed and config, never on the machine.
        "des_events_total": float(des.wall_events),
        "des_events_per_request": des.wall_events / des.wall_requests,
        "single_events_total": float(single.wall_events),
    }
    specs = {
        "des_requests_per_s": {
            "direction": "higher", "tolerance": WALL_TOLERANCE,
        },
        "single_requests_per_s": {
            "direction": "higher", "tolerance": WALL_TOLERANCE,
        },
    }
    bench_case.emit(metrics, specs, table="event_loop_throughput")

    for result in best.values():
        # The loop actually ran and accounted its wall time.
        assert result.wall_requests == N_REQUESTS
        # Every request is one arrival and one completion event.
        assert result.wall_events == 2 * N_REQUESTS
        assert result.wall_loop_s > 0.0
        assert result.wall_requests_per_s() > 0.0
