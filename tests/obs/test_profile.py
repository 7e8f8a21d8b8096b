"""Wall-clock profiler: accounting, determinism and artifact identity.

The invariants pinned here are the ones the DES raw-speed refactor
(ROADMAP item 1) will be defended with:

* the instrumenting profiler's exclusive/inclusive accounting is exact
  under a fake clock, and on a real run the unattributed residual stays
  within the calibrated self-overhead budget;
* same-seed runs produce identical event counts and identical profile
  fingerprints — wall numbers are data, never identity;
* with no profiler installed the engine's simulated-time outputs are
  byte-identical to profiled runs, the profiler puts every timed
  callable back on exit, and a detached run's empty observer dispatch
  costs far less than 2% of a real event's processing time;
* collapsed-stack output round-trips through the parser flamegraph.pl
  and speedscope rely on.
"""

import json
import time
import tracemalloc

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.errors import ConfigurationError
from repro.ftl.config import SsdConfig
from repro.obs import ManifestBuilder, MetricsRegistry, RunManifest
from repro.obs.profile import (
    EventLoopProfiler,
    StackSampler,
    allocation_profile,
    parse_collapsed,
    peak_py_alloc_kb,
    profile_fingerprint,
    profile_workload,
)
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    RunObserver,
    observe,
)
from repro.traces.workloads import make_workload


class FakeClock:
    """A manually advanced clock; ``tick`` both advances and reads."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# EventLoopProfiler accounting
# ---------------------------------------------------------------------------


def test_exclusive_excludes_nested_children():
    clock = FakeClock()
    profiler = EventLoopProfiler(clock=clock)
    profiler.begin("event.arrival")
    clock.advance(1.0)
    profiler.begin("phase.sense")
    clock.advance(3.0)
    profiler.end()
    clock.advance(0.5)
    profiler.end()
    payload = profiler.to_dict()
    arrival = payload["events"]["arrival"]
    sense = payload["phases"]["sense"]
    assert arrival["count"] == 1 and sense["count"] == 1
    assert arrival["inclusive_s"] == pytest.approx(4.5)
    assert arrival["exclusive_s"] == pytest.approx(1.5)
    assert sense["inclusive_s"] == sense["exclusive_s"] == pytest.approx(3.0)


def test_backdated_begin_charges_from_t0():
    clock = FakeClock()
    profiler = EventLoopProfiler(clock=clock)
    clock.advance(2.0)
    # The engine reads t0 before the heap pop, then begins after it.
    profiler.begin("event.op_complete", t0=1.0)
    clock.advance(0.25)
    assert profiler.end() == pytest.approx(1.25)


def test_end_without_begin_raises():
    profiler = EventLoopProfiler(clock=FakeClock())
    with pytest.raises(ConfigurationError):
        profiler.end()


def test_finish_loop_with_open_sections_raises():
    profiler = EventLoopProfiler(clock=FakeClock())
    profiler.begin("event.arrival")
    with pytest.raises(ConfigurationError):
        profiler.finish_loop(1.0, 1, 1)


def test_loop_reconciliation_under_fake_clock():
    clock = FakeClock()
    profiler = EventLoopProfiler(clock=clock)
    for _ in range(4):
        profiler.begin("event.arrival")
        clock.advance(1.0)
        profiler.end()
    profiler.finish_loop(4.0, 4, 2)
    loop = profiler.to_dict()["loop"]
    assert loop["attributed_s"] == pytest.approx(4.0)
    assert loop["unattributed_s"] == pytest.approx(0.0)
    assert loop["events_per_s"] == pytest.approx(1.0)
    assert loop["requests_per_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Real-run invariants (small traces; these are correctness tests, not
# benchmarks)
# ---------------------------------------------------------------------------

RUN_KW = dict(requests=1_500, blocks=128, seed=7)


def test_instrument_run_reconciles_within_overhead():
    artifact = profile_workload("fin-2", mode="instrument", **RUN_KW)
    loop = artifact["wall"]["loop"]
    events = artifact["wall"]["events"]
    assert sum(row["count"] for row in events.values()) == loop["events"]
    # Per-event inclusive times sum to the loop wall time; the residual
    # (loop bookkeeping the sections cannot see) stays within the
    # calibrated self-overhead budget plus scheduling slack.
    assert loop["unattributed_s"] <= loop["self_overhead_s"] + 0.05
    assert loop["attributed_s"] <= loop["wall_s"] + 1e-6


def test_same_seed_runs_deterministic_counts_and_fingerprint():
    a = profile_workload("fin-2", mode="instrument", **RUN_KW)
    b = profile_workload("fin-2", mode="instrument", **RUN_KW)
    counts = lambda art: {  # noqa: E731
        key: row["count"] for key, row in art["wall"]["events"].items()
    }
    assert counts(a) == counts(b)
    assert a["wall"]["loop"]["events"] == b["wall"]["loop"]["events"]
    assert a["simulated"] == b["simulated"]
    assert profile_fingerprint(a) == profile_fingerprint(b)


def test_fingerprint_ignores_wall_but_not_config():
    artifact = profile_workload("fin-2", mode="instrument", **RUN_KW)
    original = profile_fingerprint(artifact)
    mutated = json.loads(json.dumps(artifact))
    mutated["wall"] = {"loop": {"wall_s": 1e9, "events": -1}}
    assert profile_fingerprint(mutated) == original
    mutated["seed"] = RUN_KW["seed"] + 1
    assert profile_fingerprint(mutated) != original


def test_fingerprint_idempotent_over_stored_key():
    # The CLI stores the fingerprint inside the artifact it writes;
    # recomputing on the written artifact must verify, not drift.
    artifact = profile_workload("fin-2", mode="instrument", **RUN_KW)
    stored = profile_fingerprint(artifact)
    artifact["fingerprint"] = stored
    assert profile_fingerprint(artifact) == stored
    assert "fingerprint" in artifact  # recomputation does not mutate


def _des_engine(observers=()):
    ssd_config = SsdConfig(
        n_blocks=128, pages_per_block=64, initial_pe_cycles=6000
    )
    workload = make_workload("fin-2", ssd_config.logical_pages)
    trace = workload.generate(1_500, seed=7)
    config = SystemConfig(
        ssd=ssd_config, footprint_pages=workload.footprint_pages,
        buffer_pages=512,
    )
    system = build_system("flexlevel", config)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        observers=observers,
    )
    return engine, trace


def test_profiler_never_touches_simulated_outputs():
    bare_engine, trace = _des_engine()
    bare = bare_engine.run(trace, "fin-2")
    profiled_engine, trace = _des_engine()
    with EventLoopProfiler():
        profiled = profiled_engine.run(trace, "fin-2")
    # Byte-identical simulated-time outputs: profiling is wall-only.
    dump = lambda r: json.dumps(r.summary(), sort_keys=True)  # noqa: E731
    assert dump(bare) == dump(profiled)
    assert bare.retry_rounds_histogram == profiled.retry_rounds_histogram


def test_profiler_restores_timed_callables_on_exit():
    arrival = vars(DesSimulationEngine)["_arrival"]
    profiler = EventLoopProfiler()
    with profiler:
        assert vars(DesSimulationEngine)["_arrival"] is not arrival
        with pytest.raises(ConfigurationError):
            profiler.__enter__()
    assert vars(DesSimulationEngine)["_arrival"] is arrival


class _CountingObserver(RunObserver):
    """Counts every hook call the engine and the SSD emit."""

    def __init__(self):
        self.calls = 0


def _counting_hook(name):
    base = getattr(RunObserver, name)

    def hook(self, *args):
        self.calls += 1
        return base(self, *args)

    return hook


for _name, _value in vars(RunObserver).items():
    if callable(_value) and not _name.startswith("_"):
        setattr(_CountingObserver, _name, _counting_hook(_name))


def test_detached_dispatch_costs_under_two_percent_of_an_event():
    """The detached path is one loop over an empty tuple per hook.

    Measure that primitive directly, count the emission points a run
    actually executes (one observer attached: one hook call per
    emission loop), and bound their cost per event against the
    measured per-event processing cost: the in-process check behind
    the "< 2% overhead when detached" claim (the cross-PR floor is
    bench_event_loop_throughput's regression gate).
    """
    engine, trace = _des_engine()
    result = engine.run(trace, "fin-2")
    per_event_s = result.wall_loop_s / result.wall_events
    counter = _CountingObserver()
    counted_engine, trace = _des_engine(observers=(counter,))
    counted = counted_engine.run(trace, "fin-2")
    assert counted.wall_events == result.wall_events
    emissions_per_event = counter.calls / result.wall_events
    observers = ()
    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        for _observer in observers:
            raise AssertionError
    dispatch_s = (time.perf_counter() - t0) / reps
    assert emissions_per_event * dispatch_s < 0.02 * per_event_s


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


def test_sampler_output_parses_and_reports_overhead():
    sampler = StackSampler(hz=500)
    sampler.start()
    deadline = time.perf_counter() + 0.2
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(500))
    sampler.stop()
    assert total > 0
    assert sampler.n_samples > 0
    lines = sampler.collapsed()
    parsed = parse_collapsed(lines)
    assert sum(count for _, count in parsed) == sampler.n_samples
    # Stacks are root-first: every frame is "name (file:line)".
    frames, _ = parsed[0]
    assert all("(" in frame and frame.endswith(")") for frame in frames)
    assert 0.0 <= sampler.overhead_fraction() < 0.9
    payload = sampler.to_dict(top=3)
    assert payload["distinct_stacks"] == len(lines)
    assert len(payload["collapsed"]) <= 3


@pytest.mark.parametrize(
    "line",
    ["no trailing count", "stack -3", "frame;;frame 2", " 5", "a;b 1.5"],
)
def test_parse_collapsed_rejects_malformed(line):
    with pytest.raises(ConfigurationError):
        parse_collapsed([line])


def test_parse_collapsed_roundtrip():
    lines = ["main (a.py:1);work (b.py:2) 7", "main (a.py:1) 3"]
    assert parse_collapsed(lines) == [
        (["main (a.py:1)", "work (b.py:2)"], 7),
        (["main (a.py:1)"], 3),
    ]


# ---------------------------------------------------------------------------
# Allocation profiler and the manifest field
# ---------------------------------------------------------------------------


def test_allocation_profile_reports_sites_and_peak():
    def burn():
        return [bytearray(1024) for _ in range(512)]

    payload = allocation_profile(burn, top=5)
    assert payload["peak_kb"] > 256
    assert payload["top"] and len(payload["top"]) <= 5
    site = payload["top"][0]
    assert ":" in site["site"] and site["size_kb"] > 0
    assert not tracemalloc.is_tracing()


def test_peak_py_alloc_kb_none_unless_tracing():
    assert not tracemalloc.is_tracing()
    assert peak_py_alloc_kb() is None
    tracemalloc.start()
    try:
        blob = bytearray(512 * 1024)
        peak = peak_py_alloc_kb()
        assert peak is not None and peak >= 512
        del blob
    finally:
        tracemalloc.stop()


def test_manifest_records_peak_py_alloc_when_tracing(tmp_path):
    builder = ManifestBuilder.begin("test run", {"k": 1}, seed=3)
    tracemalloc.start()
    try:
        manifest = builder.finish()
    finally:
        tracemalloc.stop()
    assert isinstance(manifest.peak_py_alloc_kb, int)
    path = manifest.write(tmp_path / "manifest.json")
    again = RunManifest.read(path)
    assert again.peak_py_alloc_kb == manifest.peak_py_alloc_kb

    untraced = ManifestBuilder.begin("test run", {"k": 1}, seed=3).finish()
    assert untraced.peak_py_alloc_kb is None
    # Wall-clock fields are data, not identity: the config hash is
    # computed over the config alone.
    assert untraced.config_hash == manifest.config_hash


# ---------------------------------------------------------------------------
# sim.wall.* gauges
# ---------------------------------------------------------------------------


def test_engines_publish_wall_gauges():
    registry = MetricsRegistry()
    engine, trace = _des_engine(observers=observe(registry=registry))
    engine.run(trace, "fin-2")
    snapshot = registry.snapshot()
    assert snapshot["sim.wall.loop_s"] > 0.0
    assert snapshot["sim.wall.events_per_s"] > 0.0
    assert snapshot["sim.wall.requests_per_s"] > 0.0


# ---------------------------------------------------------------------------
# profile_workload artifact surface
# ---------------------------------------------------------------------------


def test_profile_workload_rejects_unknowns():
    with pytest.raises(ConfigurationError):
        profile_workload("fin-2", mode="flamethrower", **RUN_KW)
    with pytest.raises(ConfigurationError):
        profile_workload("no-such-workload", **RUN_KW)
    with pytest.raises(ConfigurationError):
        profile_workload("fin-2", system="warp", **RUN_KW)


def test_allocation_profile_rejects_negative_top():
    # A negative slice bound would keep every site but the last few.
    with pytest.raises(ConfigurationError, match="negative allocation-site"):
        allocation_profile(lambda: None, top=-1)
    assert allocation_profile(lambda: [0] * 1000, top=0)["top"] == []


def test_profile_workload_sample_and_alloc_modes():
    sample = profile_workload(
        "fin-2", mode="sample", hz=997, requests=2_500, blocks=128, seed=7
    )
    assert sample["schema"] == "repro.profile/1"
    sampler = sample["wall"]["sampler"]
    parse_collapsed(sampler["collapsed"])
    assert sampler["hz"] == 997
    assert sample["wall"]["loop"]["events_per_s"] > 0

    alloc = profile_workload("fin-2", mode="alloc", top=4, **RUN_KW)
    assert alloc["wall"]["alloc"]["peak_kb"] > 0
    assert len(alloc["wall"]["alloc"]["top"]) <= 4
    # Simulated outputs agree across modes: profiling choice never
    # reaches virtual time.
    instrument = profile_workload("fin-2", mode="instrument", **RUN_KW)
    assert alloc["simulated"] == instrument["simulated"]
