"""Tests for the discrete-event multi-channel simulator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.systems import ReadServiceBreakdown, SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.ecc.ldpc.latency import ReadLatencyModel
from repro.errors import ConfigurationError, SimulationError
from repro.ftl.config import SsdConfig
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    RetryOutcome,
    RunObserver,
    observe,
)
from repro.obs import Tracer, WindowedRecorder
from repro.sim.des.events import Event, EventHeap, EventKind
from repro.sim.des.ingress import TraceSource
from repro.sim.des.observers import subscribers
from repro.sim.des.scheduler import ChannelScheduler
from repro.traces.schema import TraceRecord
from tests.sim.reference import run_single_queue


def tiny_system(name="ldpc-in-ssd", shared_policy=None, **overrides):
    ssd = SsdConfig(
        n_blocks=64, pages_per_block=16, gc_free_block_threshold=2, **overrides
    )
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system(name, config, level_adjust=shared_policy)


def mixed_trace(n=200, period_us=500.0):
    return [
        TraceRecord(i * period_us, (i * 7) % 80, 1 + i % 3, i % 4 == 0)
        for i in range(n)
    ]


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        for t in (5.0, 1.0, 3.0):
            heap.push(Event(time_us=t, kind=EventKind.ARRIVAL))
        times = [heap.pop().time_us for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_virtual_time_monotone(self):
        heap = EventHeap()
        heap.push(Event(time_us=10.0, kind=EventKind.ARRIVAL))
        heap.pop()
        with pytest.raises(SimulationError):
            heap.push(Event(time_us=5.0, kind=EventKind.ARRIVAL))

    def test_ties_broken_by_insertion_order(self):
        heap = EventHeap()
        heap.push(Event(time_us=1.0, kind=EventKind.ARRIVAL, request_index=0))
        heap.push(Event(time_us=1.0, kind=EventKind.ARRIVAL, request_index=1))
        assert heap.pop().request_index == 0
        assert heap.pop().request_index == 1

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventHeap().pop()


class TestScheduler:
    def test_backlog_drains_into_idle_gap(self):
        scheduler = ChannelScheduler(n_channels=1, gc_granule_us=100.0)
        scheduler.add_background(50.0)
        report = scheduler.admit(0, arrival_us=1000.0)
        # Plenty of idle time before the arrival: GC finishes, no stall.
        assert report.drained_us == 50.0
        assert report.stall_us == 0.0
        assert report.start_us == 1000.0

    def test_residual_backlog_stalls_one_granule(self):
        scheduler = ChannelScheduler(n_channels=1, gc_granule_us=100.0)
        scheduler.add_background(500.0)
        report = scheduler.admit(0, arrival_us=50.0)
        assert report.drained_us == 50.0
        assert report.stall_us == 100.0
        assert report.start_us == 150.0

    def test_background_split_across_channels(self):
        scheduler = ChannelScheduler(n_channels=4, gc_granule_us=100.0)
        scheduler.add_background(400.0)
        assert all(state.backlog_us == 100.0 for state in scheduler.channels)


class TestConservation:
    def test_every_request_serviced_exactly_once(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        trace = mixed_trace(150)
        engine = DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=4, retry_model=None
        )
        result = engine.run(trace, "t")
        assert result.n_requests == len(trace)

    def test_response_at_least_service(self, shared_policy):
        """Sparse flash reads (no queueing, no buffer hits, no retries)
        must each take at least one full base read."""
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(i * 1e6, i, 1, False) for i in range(20)]
        engine = DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=4, retry_model=None
        )
        result = engine.run(trace, "t")
        base = ReadLatencyModel().base_read_us
        assert all(r >= base for r in result.read_responses_us)
        assert all(r >= 0 for r in result.write_responses_us)

    def test_makespan_and_utilization_bounds(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        engine = DesSimulationEngine(system, warmup_fraction=0.0, n_channels=4)
        result = engine.run(mixed_trace(200), "t")
        assert result.makespan_us > 0
        utilization = result.channel_utilization()
        assert len(utilization) == 4
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utilization)

    def test_utilization_gauges_match_result(self, shared_policy):
        from repro.obs import MetricsRegistry

        system = tiny_system(shared_policy=shared_policy)
        registry = MetricsRegistry()
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.0,
            n_channels=4,
            observers=observe(registry=registry),
        )
        result = engine.run(mixed_trace(200), "t")
        snapshot = registry.snapshot()
        for channel, utilization in enumerate(result.channel_utilization()):
            assert snapshot[f"sim.channel.{channel}.busy_us"] == pytest.approx(
                result.channel_busy_us[channel]
            )
            assert snapshot[
                f"sim.channel.{channel}.utilization"
            ] == pytest.approx(utilization, rel=1e-12)


def assert_matches_reference(des, reference):
    """Exact equality: every response in completion order, every stat."""
    assert des.read_responses_us == reference.read_responses_us
    assert des.write_responses_us == reference.write_responses_us
    stats = dict(des.stats)
    assert stats.pop("mean_retry_rounds") == 0.0
    assert stats == reference.stats


def gc_heavy_system(name):
    """A 64-block drive with a footprint of 40 % of its logical space
    and an 8-page buffer, so write-heavy traces garbage-collect."""
    ssd = SsdConfig(n_blocks=64, pages_per_block=16, gc_free_block_threshold=2)
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=8
    )
    # A private policy: its BER-cache counters are part of the stats.
    return build_system(name, config, level_adjust=LevelAdjustPolicy())


class TestLegacyEquivalence:
    """One channel without retry is the single-queue reference model."""

    @pytest.mark.parametrize("name", ["baseline", "ldpc-in-ssd", "flexlevel"])
    def test_single_channel_no_retry_matches_legacy(self, name):
        trace = mixed_trace(300)
        reference = run_single_queue(gc_heavy_system(name), trace, 0.1)
        des = DesSimulationEngine(
            gc_heavy_system(name),
            warmup_fraction=0.1,
            n_channels=1,
            retry_model=None,
        ).run(trace, "t")
        assert_matches_reference(des, reference)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(["baseline", "leveladjust-only", "flexlevel"]),
    )
    def test_random_traces_match_reference_on_gc_heavy_drive(self, seed, name):
        rng = np.random.default_rng(seed)
        n = 250
        times = np.cumsum(rng.exponential(rng.uniform(50.0, 2000.0), n))
        trace = [
            TraceRecord(
                float(times[i]),
                int(rng.integers(300)),
                int(rng.integers(1, 5)),
                bool(rng.random() < 0.6),
            )
            for i in range(n)
        ]
        reference = run_single_queue(gc_heavy_system(name), trace, 0.1)
        des = DesSimulationEngine(
            gc_heavy_system(name),
            warmup_fraction=0.1,
            n_channels=1,
            retry_model=None,
        ).run(trace, "t")
        assert_matches_reference(des, reference)

    def test_multi_channel_speeds_up_parallel_requests(self, shared_policy):
        def mean(channels):
            system = tiny_system(shared_policy=shared_policy)
            trace = [TraceRecord(i * 200.0, (i * 11) % 80, 4, False) for i in range(100)]
            engine = DesSimulationEngine(
                system, warmup_fraction=0.0, n_channels=channels, retry_model=None
            )
            return engine.run(trace, "t").mean_response_us()

        assert mean(4) < mean(1)


def write_heavy_trace(n):
    """Multi-page requests, four in five writes: GC runs on a 64-block drive."""
    return [
        TraceRecord(i * 120.0, (i * 29) % 300, 1 + i % 4, i % 5 != 0)
        for i in range(n)
    ]


def single_queue(**instruments):
    """One channel, no retry, on a fresh GC-heavy baseline drive."""
    return DesSimulationEngine(
        gc_heavy_system("baseline"),
        warmup_fraction=0.0,
        n_channels=1,
        retry_model=None,
        observers=observe(**instruments),
    )


class RecordingSource(TraceSource):
    """A trace source that logs the engine's observer advances and aborts."""

    def __init__(self, records):
        super().__init__(records)
        self.advanced: list[float] = []
        self.aborted: list[int] = []

    def advance_to(self, now_us: float) -> None:
        self.advanced.append(now_us)

    def on_abort(self, index: int) -> None:
        self.aborted.append(index)


class TestEventLoop:
    """Only arrivals and request completions reach the heap."""

    def test_event_kinds_are_arrival_and_request_complete(self):
        assert set(EventKind) == {EventKind.ARRIVAL, EventKind.REQUEST_COMPLETE}

    def test_crash_free_run_pops_two_events_per_request(self):
        trace = write_heavy_trace(600)
        result = DesSimulationEngine(
            gc_heavy_system("flexlevel"), warmup_fraction=0.0, n_channels=4
        ).run(trace, "t")
        assert result.stats["erase_blocks"] > 0
        assert result.wall_requests == len(trace)
        assert result.wall_events == 2 * result.wall_requests

    def test_no_page_level_event_reaches_the_heap(self, monkeypatch):
        pushed: list[Event] = []
        push = EventHeap.push

        def recording_push(heap, event):
            pushed.append(event)
            push(heap, event)

        monkeypatch.setattr(EventHeap, "push", recording_push)
        trace = [
            TraceRecord(i * 150.0, (i * 13) % 80, 1 + i % 4, i % 3 == 0)
            for i in range(120)
        ]
        DesSimulationEngine(
            gc_heavy_system("flexlevel"), warmup_fraction=0.0, n_channels=4
        ).run(trace, "t")
        assert sum(record.n_pages for record in trace) > 2 * len(trace)
        for kind in EventKind:
            indices = [event.request_index for event in pushed if event.kind is kind]
            assert sorted(indices) == list(range(len(trace)))
        assert len(pushed) == 2 * len(trace)

    def test_fault_injected_gc_heavy_run_conserves(self):
        """GC, program/erase failures and the read-only fallback in one
        run; it ends in ``_check_conservation``: every request completed
        and the scheduler committed every dispatched page op."""
        from repro.faults import FaultConfig, FaultInjector

        ssd = SsdConfig(
            n_blocks=64, pages_per_block=16, gc_free_block_threshold=2,
            initial_pe_cycles=16000,
        )
        config = SystemConfig(
            ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=8
        )
        faults = FaultConfig(enabled=True, seed=5, initial_bad_block_rate=0.0)
        system = build_system(
            "leveladjust-only", config, level_adjust=LevelAdjustPolicy(),
            fault_injector=FaultInjector(faults.scaled(20)),
        )
        trace = write_heavy_trace(600)
        result = DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=4
        ).run(trace, "t")
        stats = system.ssd.stats
        assert stats.erase_blocks > 50
        assert stats.program_fail_events > 0 and stats.erase_fail_events > 0
        assert system.ssd.read_only and stats.rejected_writes > 0
        assert result.wall_requests == len(trace)

    def test_conservation_catches_a_lost_op(self):
        scheduler = ChannelScheduler(n_channels=2, gc_granule_us=100.0)
        scheduler.commit(0, 10.0)
        scheduler.commit(1, 10.0)
        DesSimulationEngine._check_conservation(1, 1, 2, scheduler)
        with pytest.raises(SimulationError, match="committed 2 ops"):
            DesSimulationEngine._check_conservation(1, 1, 3, scheduler)
        with pytest.raises(SimulationError, match="requests completed"):
            DesSimulationEngine._check_conservation(2, 1, 2, scheduler)

    def test_crash_between_op_and_request_completion(self):
        """A cut after a request's second page op completed but before
        its last one: both requests in flight abort, and the observers
        stand at that second completion, the channel's last activity
        before the cut."""
        trace = [TraceRecord(0.0, 10, 4, False), TraceRecord(1.0, 40, 2, True)]
        tracer = Tracer(sample_every=1, keep_slowest=0)
        single_queue(tracer=tracer).run(trace, "t")
        root = next(span for span in tracer.spans if span.attrs["index"] == 0)
        op_ends = sorted(
            child.end_us for child in root.children if child.name != "queue_wait"
        )
        assert len(op_ends) == 4 and op_ends[1] < op_ends[2]
        cut_us = (op_ends[1] + op_ends[2]) / 2.0

        source = RecordingSource(trace)
        result = single_queue(recorder=WindowedRecorder(window_us=10.0)).run_source(
            source, "t", crash_us=cut_us
        )
        assert result.crashed and result.aborted_requests == 2
        assert source.aborted == [0, 1]
        assert result.n_requests == 0
        assert source.advanced[-1] == op_ends[1]

    def test_crash_inside_a_gc_stall_reaches_the_drain(self):
        """A cut after a GC stall ended but before the stalled request's
        first op completed: the observers stand at the stall's end, where
        the drain handed the channel back."""
        trace = write_heavy_trace(400)
        tracer = Tracer(sample_every=1, keep_slowest=0)
        single_queue(tracer=tracer).run(trace, "t")
        arrivals = [record.timestamp_us for record in trace]
        for root in tracer.spans:
            stalls = [c for c in root.children if c.name == "gc_stall"]
            ops = [c for c in root.children if c.name not in ("gc_stall", "queue_wait")]
            if not stalls or ops[0].end_us <= stalls[0].end_us:
                continue
            cut_us = (stalls[0].end_us + ops[0].end_us) / 2.0
            # No arrival event between the drain and the cut.
            if not any(stalls[0].end_us < t < cut_us for t in arrivals):
                break
        else:
            pytest.fail("no GC stall to cut into")

        source = RecordingSource(trace)
        result = single_queue(recorder=WindowedRecorder(window_us=10.0)).run_source(
            source, "t", crash_us=cut_us
        )
        assert result.crashed
        assert source.aborted[0] == root.attrs["index"]
        assert source.advanced[-1] == stalls[0].end_us


class RecordingObserver(RunObserver):
    """A fake subscriber that logs the run events it receives."""

    def __init__(self):
        self.events: list[tuple] = []

    def start(self, system, source, warmup_count, crash_us):
        self.events.append(("start",))

    def advance(self, time_us):
        self.events.append(("advance", time_us))

    def arrival(self, pending, time_us):
        self.events.append(("arrival", pending.index))

    def op_serviced(self, pending, *rest):
        self.events.append(("op", pending.index))

    def dispatched(self, pending, completion_us, queue_wait_us):
        self.events.append(("dispatched", pending.index))

    def request_complete(self, pending, time_us, response_us):
        self.events.append(("complete", pending.index))

    def finish(self, result, scheduler):
        self.events.append(("finish",))


class TestObserverSeam:
    """The engine reaches observers only through the run events."""

    def test_fake_subscriber_sees_every_request_and_page_op(self):
        trace = write_heavy_trace(300)
        observer = RecordingObserver()
        DesSimulationEngine(
            gc_heavy_system("flexlevel"), warmup_fraction=0.1, n_channels=4,
            observers=[observer],
        ).run(trace, "t")
        events = observer.events
        assert events[0] == ("start",) and events[-1] == ("finish",)
        for kind in ("arrival", "dispatched", "complete"):
            indices = [e[1] for e in events if e[0] == kind]
            assert sorted(indices) == list(range(len(trace)))
        ops = [e[1] for e in events if e[0] == "op"]
        for index, record in enumerate(trace):
            assert ops.count(index) == record.n_pages
        times = [e[1] for e in events if e[0] == "advance"]
        assert len(times) == 2 * len(trace)
        assert times == sorted(times)
        # Each request's page ops sit between its arrival and dispatch.
        first = events.index(("arrival", 0))
        last = events.index(("dispatched", 0))
        assert events[first + 1 : last] == [("op", 0)] * trace[0].n_pages

    def test_hooks_reach_only_the_observers_that_override_them(self):
        class PageOpCounter(RunObserver):
            def __init__(self):
                self.ops = 0

            def op_serviced(self, pending, *rest):
                self.ops += 1

        recording, counter = RecordingObserver(), PageOpCounter()
        both = (recording, counter)
        assert subscribers(both, "op_serviced") == both
        assert subscribers(both, "advance") == (recording,)
        assert subscribers(both, "gc_drained") == ()
        trace = write_heavy_trace(300)
        DesSimulationEngine(
            gc_heavy_system("flexlevel"), warmup_fraction=0.1, n_channels=4,
            observers=both,
        ).run(trace, "t")
        assert counter.ops == sum(record.n_pages for record in trace)
        assert counter.ops == sum(1 for e in recording.events if e[0] == "op")

    def test_no_op_observer_leaves_outputs_identical(self):
        runs = []
        for observers in ((), (RunObserver(),)):
            runs.append(
                DesSimulationEngine(
                    gc_heavy_system("flexlevel"), warmup_fraction=0.1,
                    n_channels=4, retry_model=ReadRetryModel(ReadRetryConfig(seed=3)),
                    observers=observers,
                ).run(write_heavy_trace(600), "t")
            )
        bare, observed = runs
        assert json.dumps(bare.summary(), sort_keys=True) == json.dumps(
            observed.summary(), sort_keys=True
        )
        assert bare.retry_rounds_histogram == observed.retry_rounds_histogram

    def test_observers_detach_from_the_ssd_after_the_run(self):
        system = gc_heavy_system("leveladjust-only")
        recorder = WindowedRecorder(window_us=1000.0)
        DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=4,
            observers=observe(recorder=recorder),
        ).run(write_heavy_trace(600), "t")
        gc_runs = recorder.total("ftl.gc.runs")
        assert gc_runs == system.ssd.stats.gc_runs > 0
        assert system.ssd.observers == ()
        # A later detached run on the same drive writes nothing into
        # the first run's (already flushed) recorder.
        DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=4
        ).run(write_heavy_trace(600), "t")
        assert system.ssd.stats.gc_runs > gc_runs
        assert recorder.total("ftl.gc.runs") == gc_runs

    def test_repeated_runs_stamp_ftl_events_in_their_own_timeline(self):
        """Two attached runs on one drive, both traces starting at 0:
        the second run's GC runs land in its own windows, not at the
        first run's last host-path time."""
        system = gc_heavy_system("leveladjust-only")
        gc_windows = []
        for _ in range(2):
            recorder = WindowedRecorder(window_us=1000.0)
            DesSimulationEngine(
                system, warmup_fraction=0.0, n_channels=4,
                observers=observe(recorder=recorder),
            ).run(write_heavy_trace(600), "t")
            gc_windows.append([row["window"] for row in recorder.rows("ftl.gc.runs")])
        first, second = gc_windows
        assert len(second) > 1
        assert second[0] < first[-1]

    def test_observers_detach_when_the_run_raises(self):
        system = gc_heavy_system("baseline")
        engine = DesSimulationEngine(
            system, warmup_fraction=0.0, observers=[RunObserver()]
        )

        class Failing(TraceSource):
            def on_complete(self, index, completion_us, response_us):
                raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            engine.run_source(Failing(mixed_trace(10)), "t")
        assert system.ssd.observers == ()

    def test_engine_imports_no_observer_type(self):
        import ast
        import inspect

        from repro.sim.des import engine as engine_module

        tree = ast.parse(inspect.getsource(engine_module))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        forbidden = {
            "Tracer", "Span", "WindowedRecorder", "ChannelTelemetry",
            "MetricsRegistry", "EventLoopProfiler",
        }
        assert not imported & forbidden


class TestReadRetry:
    def synthetic_breakdown(self, ber, provisioned=0, required=0, n_retries=6):
        return ReadServiceBreakdown(
            lpn=0,
            buffer_hit=False,
            mode=None,
            required_levels=required,
            provisioned_levels=provisioned,
            first_round_us=100.0,
            retry_rounds_us=tuple(10.0 for _ in range(n_retries)),
            post_read_us=0.0,
            raw_ber=ber,
        )

    def test_seeded_first_retry_rate(self):
        config = ReadRetryConfig(ber_scale=25.0, failure_cap=0.5, seed=7)
        model = ReadRetryModel(config)
        ber = 8e-3  # p(first retry) = 25 * 8e-3 = 0.2
        samples = [model.sample(self.synthetic_breakdown(ber))[0] for _ in range(4000)]
        first_retry_rate = np.mean([s >= 1 for s in samples])
        assert first_retry_rate == pytest.approx(0.2, abs=0.025)

    def test_margin_reduces_failures(self):
        model = ReadRetryModel(ReadRetryConfig(seed=3))
        assert model.failure_probability(1e-2, 0) == pytest.approx(0.25)
        assert model.failure_probability(1e-2, 2) == pytest.approx(0.0625)
        assert model.failure_probability(1.0, 0) == 0.5  # capped

    def test_buffer_hits_never_retry(self):
        model = ReadRetryModel()
        breakdown = ReadServiceBreakdown(
            lpn=0, buffer_hit=True, mode=None, required_levels=0,
            provisioned_levels=0, first_round_us=2.0, retry_rounds_us=(),
            post_read_us=0.0, raw_ber=0.0,
        )
        assert model.sample(breakdown) == (0, 0.0)

    def test_engine_retry_runs_are_seeded(self, shared_policy):
        def histogram():
            system = tiny_system(shared_policy=shared_policy)
            engine = DesSimulationEngine(
                system,
                warmup_fraction=0.0,
                n_channels=2,
                retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
            )
            return engine.run(mixed_trace(300), "t").retry_rounds_histogram

        first, second = histogram(), histogram()
        assert first == second
        assert sum(first.values()) > 0

    def test_retries_stretch_the_tail(self, shared_policy):
        """Retries on a worn device must raise p99 more than they can
        lower it: compare identical runs with retries on and off."""
        def p99(retry_model):
            system = tiny_system(
                "baseline", shared_policy=shared_policy, initial_pe_cycles=6000
            )
            engine = DesSimulationEngine(
                system, warmup_fraction=0.0, n_channels=2, retry_model=retry_model
            )
            return engine.run(mixed_trace(400), "t").percentile_response_us(99)

        assert p99(ReadRetryModel(ReadRetryConfig(seed=5))) >= p99(None)


class TestRetryOutcome:
    def synthetic_breakdown(self, ber, provisioned=0, required=0, n_retries=6):
        return ReadServiceBreakdown(
            lpn=0,
            buffer_hit=False,
            mode=None,
            required_levels=required,
            provisioned_levels=provisioned,
            first_round_us=100.0,
            retry_rounds_us=tuple(10.0 for _ in range(n_retries)),
            post_read_us=0.0,
            raw_ber=ber,
        )

    def test_buffer_hit_outcome(self):
        model = ReadRetryModel()
        breakdown = ReadServiceBreakdown(
            lpn=0, buffer_hit=True, mode=None, required_levels=0,
            provisioned_levels=0, first_round_us=2.0, retry_rounds_us=(),
            post_read_us=0.0, raw_ber=0.0,
        )
        outcome = model.sample_outcome(breakdown)
        assert outcome == RetryOutcome(0, 0.0, False, 0.0)

    def test_empty_ladder_is_exhausted_without_a_draw(self):
        """A read already provisioned at the ladder top has no retry
        rounds: it is terminally exhausted with its first-round failure
        probability, and consumes no RNG draw (draw-sequence parity
        with the legacy sampler)."""
        model = ReadRetryModel(ReadRetryConfig(seed=3))
        reference = ReadRetryModel(ReadRetryConfig(seed=3))
        outcome = model.sample_outcome(self.synthetic_breakdown(1e-2, n_retries=0))
        assert outcome.exhausted
        assert outcome.extra_rounds == 0
        assert outcome.final_failure_probability == pytest.approx(0.25)
        # Next draws still line up with an untouched equally-seeded model.
        probe = self.synthetic_breakdown(1e-2)
        assert model.sample_outcome(probe) == reference.sample_outcome(probe)

    def test_full_ladder_failure_reports_residual_probability(self):
        """A read that fails every escalation ends exhausted with the
        capped base probability after every margin halving; a sampled
        population at max BER contains such reads."""
        model = ReadRetryModel(ReadRetryConfig(seed=13))
        exhausted = [
            outcome
            for outcome in (
                model.sample_outcome(self.synthetic_breakdown(1.0, n_retries=2))
                for _ in range(400)
            )
            if outcome.exhausted
        ]
        # P(exhaust) = 0.5 * 0.25 = 12.5 % per read: plenty in 400.
        assert exhausted
        for outcome in exhausted:
            assert outcome.extra_rounds == 2
            assert outcome.extra_us == pytest.approx(20.0)
            # 0.5 capped base, halved once per burnt round.
            assert outcome.final_failure_probability == pytest.approx(0.125)

    def test_successful_read_not_exhausted(self):
        model = ReadRetryModel()
        outcome = model.sample_outcome(self.synthetic_breakdown(0.0))
        assert outcome == RetryOutcome(0, 0.0, False, 0.0)

    def test_sample_matches_sample_outcome(self):
        """The legacy scalar view draws the same sequence."""
        a = ReadRetryModel(ReadRetryConfig(seed=7))
        b = ReadRetryModel(ReadRetryConfig(seed=7))
        for _ in range(200):
            breakdown = self.synthetic_breakdown(1e-2)
            outcome = a.sample_outcome(breakdown)
            assert b.sample(breakdown) == (outcome.extra_rounds, outcome.extra_us)

    def test_uncorrectable_reads_counted_with_faults(self, shared_policy):
        """A faulty high-wear system records uncorrectable reads; the
        identically-seeded fault-free run records none and carries no
        fault keys in its stats."""
        from repro.faults import FaultConfig, FaultInjector

        def run(injector):
            ssd = SsdConfig(
                n_blocks=64, pages_per_block=16, gc_free_block_threshold=2,
                initial_pe_cycles=16000,
            )
            config = SystemConfig(
                ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4),
                buffer_pages=16,
            )
            system = build_system("baseline", config, fault_injector=injector)
            engine = DesSimulationEngine(
                system,
                warmup_fraction=0.0,
                n_channels=2,
                retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
            )
            return engine.run(mixed_trace(400), "t")

        faulty = run(
            FaultInjector(
                FaultConfig(enabled=True, initial_bad_block_rate=0.0).scaled(100)
            )
        )
        clean = run(None)
        assert faulty.uncorrectable_reads > 0
        assert faulty.stats["uncorrectable_reads"] == faulty.uncorrectable_reads
        assert sum(faulty.uncorrectable_by_channel.values()) == (
            faulty.uncorrectable_reads
        )
        assert clean.uncorrectable_reads == 0
        assert "uncorrectable_reads" not in clean.stats


class TestValidationAndWarmup:
    def test_bad_params_rejected(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        with pytest.raises(ConfigurationError):
            DesSimulationEngine(system, warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            DesSimulationEngine(system, n_channels=0)

    def test_empty_trace_rejected(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        with pytest.raises(ConfigurationError):
            DesSimulationEngine(system).run([], "t")

    def test_warmup_swallowing_all_requests_rejected(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        engine = DesSimulationEngine(system, warmup_fraction=0.0)
        engine.warmup_fraction = 1.0  # float edge: rounds to everything
        with pytest.raises(ConfigurationError, match="warmup"):
            engine.run(mixed_trace(10), "t")

    def test_ber_cache_hit_rate_reported(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        engine = DesSimulationEngine(system, warmup_fraction=0.0, n_channels=2)
        result = engine.run(mixed_trace(200), "t")
        assert "ber_cache_hit_rate" in result.stats
        assert 0.0 <= result.stats["ber_cache_hit_rate"] <= 1.0
        hits = result.stats["ber_cache_hits"]
        misses = result.stats["ber_cache_misses"]
        assert hits + misses > 0
