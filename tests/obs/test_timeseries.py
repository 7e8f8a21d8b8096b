"""Tests for virtual-time windowed telemetry."""

import json

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.errors import ConfigurationError
from repro.ftl.config import SsdConfig
from repro.obs import DEFAULT_WINDOW_US, WindowedRecorder
from repro.traces.schema import TraceRecord


def tiny_system(name="flexlevel", shared_policy=None):
    ssd = SsdConfig(n_blocks=64, pages_per_block=16, gc_free_block_threshold=2)
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system(name, config, level_adjust=shared_policy)


def mixed_trace(n=300, period_us=400.0):
    return [
        TraceRecord(i * period_us, (i * 7) % 80, 1 + i % 3, i % 4 == 0)
        for i in range(n)
    ]


class TestRecorderBasics:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedRecorder(window_us=0.0)
        with pytest.raises(ConfigurationError):
            WindowedRecorder(window_us=-5.0)
        with pytest.raises(ConfigurationError):
            WindowedRecorder(origin_us=-1.0)
        recorder = WindowedRecorder()
        with pytest.raises(ConfigurationError):
            recorder.add("Bad Name", 0.0)
        with pytest.raises(ConfigurationError):
            WindowedRecorder(origin_us=100.0).add("x", 50.0)

    def test_window_index(self):
        recorder = WindowedRecorder(window_us=100.0, origin_us=50.0)
        assert recorder.window_index(50.0) == 0
        assert recorder.window_index(149.9) == 0
        assert recorder.window_index(150.0) == 1
        assert DEFAULT_WINDOW_US == 1000.0

    def test_add_accumulates_per_window(self):
        recorder = WindowedRecorder(window_us=10.0)
        recorder.add("sim.arrivals", 1.0)
        recorder.add("sim.arrivals", 9.0)
        recorder.add("sim.arrivals", 11.0, amount=3.0)
        rows = recorder.rows("sim.arrivals")
        assert [row["window"] for row in rows] == [0, 1]
        assert rows[0]["n"] == 2
        assert rows[0]["sum"] == pytest.approx(2.0)
        assert rows[1]["sum"] == pytest.approx(3.0)
        assert recorder.total("sim.arrivals") == pytest.approx(5.0)

    def test_sample_tracks_gauge_shape(self):
        recorder = WindowedRecorder(window_us=10.0)
        for t, value in ((0.0, 2.0), (3.0, 5.0), (7.0, 1.0)):
            recorder.sample("sim.inflight_requests", t, value)
        (row,) = recorder.rows("sim.inflight_requests")
        assert row["min"] == 1.0
        assert row["max"] == 5.0
        assert row["last"] == 1.0
        assert row["mean"] == pytest.approx(8.0 / 3.0)

    def test_unknown_series_is_empty(self):
        recorder = WindowedRecorder()
        assert recorder.rows("sim.arrivals") == []
        assert recorder.total("sim.arrivals") == 0.0
        assert recorder.series_names() == []

    def test_to_dict_sorted_and_json_safe(self):
        recorder = WindowedRecorder(window_us=10.0)
        recorder.add("z.series", 5.0)
        recorder.add("a.series", 5.0)
        out = recorder.to_dict()
        assert list(out["series"]) == ["a.series", "z.series"]
        json.dumps(out)  # no inf/nan leaks into populated windows


class TestCloseHooks:
    def hooked(self, window_us=10.0, origin_us=0.0):
        recorder = WindowedRecorder(window_us=window_us, origin_us=origin_us)
        closed: list[tuple[int, float, float]] = []
        recorder.add_close_hook(
            lambda index, start, end: closed.append((index, start, end))
        )
        return recorder, closed

    def test_advance_closes_strictly_before_now(self):
        recorder, closed = self.hooked()
        recorder.add("sim.x", 5.0)
        recorder.advance(9.9)  # still inside window 0
        assert closed == []
        recorder.advance(10.0)  # window 0 is now behind us
        assert closed == [(0, 0.0, 10.0)]
        assert recorder.closed_through == 1

    def test_empty_gap_windows_fire_in_order(self):
        recorder, closed = self.hooked()
        recorder.add("sim.x", 5.0)
        recorder.add("sim.x", 35.0)  # windows 1-2 never populated
        recorder.advance(35.0)
        assert [index for index, _, _ in closed] == [0, 1, 2]
        assert recorder.cell("sim.x", 1) is None

    def test_flush_closes_final_partial_window(self):
        recorder, closed = self.hooked()
        recorder.add("sim.x", 5.0)
        recorder.advance(25.0)  # closes 0 and 1; window 2 still open
        recorder.add("sim.x", 25.0)
        recorder.flush()
        assert [index for index, _, _ in closed] == [0, 1, 2]
        recorder.flush()  # idempotent
        assert len(closed) == 3

    def test_flush_without_observations_is_a_noop(self):
        recorder, closed = self.hooked()
        recorder.flush()
        assert closed == []
        assert recorder.closed_through == 0

    def test_late_write_into_closed_window_fails_loudly(self):
        recorder, _ = self.hooked()
        recorder.add("sim.x", 25.0)
        recorder.advance(25.0)
        with pytest.raises(ConfigurationError):
            recorder.add("sim.x", 5.0)
        # Without hooks there are no online consumers, so the legacy
        # out-of-order tolerance stands.
        bare = WindowedRecorder(window_us=10.0)
        bare.add("sim.x", 25.0)
        bare.advance(25.0)
        bare.add("sim.x", 5.0)

    def test_origin_offsets_hook_edges(self):
        recorder, closed = self.hooked(window_us=100.0, origin_us=50.0)
        recorder.add("sim.x", 60.0)
        recorder.advance(260.0)
        assert closed == [(0, 50.0, 150.0), (1, 150.0, 250.0)]

    def test_hooks_attached_late_miss_closed_windows(self):
        recorder, closed = self.hooked()
        recorder.add("sim.x", 5.0)
        recorder.advance(20.0)
        late: list[int] = []
        recorder.add_close_hook(lambda index, start, end: late.append(index))
        recorder.add("sim.x", 25.0)
        recorder.flush()
        assert [index for index, _, _ in closed] == [0, 1, 2]
        assert late == [2]

    def test_cross_engine_close_sequences_are_deterministic(
        self, shared_policy
    ):
        from repro.obs import MetricsRegistry
        from repro.sim import DesSimulationEngine, observe

        def run_queue():
            system = tiny_system("flexlevel", shared_policy)
            recorder = WindowedRecorder(window_us=500.0)
            closed: list[tuple[int, float, float]] = []
            recorder.add_close_hook(
                lambda index, start, end: closed.append((index, start, end))
            )
            engine = DesSimulationEngine(
                system,
                warmup_fraction=0.1,
                n_channels=1,
                retry_model=None,
                observers=observe(
                    registry=MetricsRegistry(), recorder=recorder
                ),
            )
            engine.run(mixed_trace(300), "t")
            return closed

        def run_des_hooked():
            closed: list[tuple[int, float, float]] = []

            def attach(recorder):
                recorder.add_close_hook(
                    lambda index, start, end: closed.append(
                        (index, start, end)
                    )
                )

            _run_des_with_hook(shared_policy, attach)
            return closed

        for runner in (run_queue, run_des_hooked):
            first, second = runner(), runner()
            assert first == second
            indices = [index for index, _, _ in first]
            # Contiguous from 0: no window skipped, none repeated.
            assert indices == list(range(len(indices)))
            assert indices  # the run closed at least one window


def _run_des_with_hook(shared_policy, attach, n=300):
    from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel, observe

    system = tiny_system("flexlevel", shared_policy)
    recorder = WindowedRecorder(window_us=500.0)
    attach(recorder)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.1,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
        observers=observe(recorder=recorder),
    )
    engine.run(mixed_trace(n), "t")
    return recorder


def run_des(shared_policy, n=300):
    from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel, observe

    system = tiny_system("flexlevel", shared_policy)
    recorder = WindowedRecorder(window_us=500.0)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.1,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
        observers=observe(recorder=recorder),
    )
    result = engine.run(mixed_trace(n), "t")
    return result, recorder, system


class TestDesEngineWindows:
    def test_arrivals_and_busy_invariants(self, shared_policy):
        result, recorder, _ = run_des(shared_policy)
        assert recorder.total("sim.arrivals") == 300
        # Windowed foreground + GC time reconciles with the per-channel
        # busy accounting the result reports.
        for channel, busy_us in enumerate(result.channel_busy_us):
            windowed = recorder.total(
                f"sim.channel.{channel}.busy_us"
            ) + recorder.total(f"sim.channel.{channel}.gc_us")
            assert windowed == pytest.approx(busy_us, rel=1e-9)

    def test_inflight_returns_to_zero(self, shared_policy):
        _, recorder, _ = run_des(shared_policy)
        rows = recorder.rows("sim.inflight_requests")
        assert rows
        assert rows[-1]["last"] == 0.0
        assert all(row["min"] >= 0.0 for row in rows)

    def test_ssd_series_route_into_recorder(self, shared_policy):
        result, recorder, system = run_des(shared_policy)
        assert recorder.total("ftl.gc.runs") == system.ssd.stats.gc_runs
        assert system.ssd.observers == ()  # detached after the run

    def test_retry_series_present(self, shared_policy):
        result, recorder, _ = run_des(shared_policy)
        assert recorder.total("sim.read.flash_reads") > 0
        if result.retry_rounds_histogram:
            rounds = sum(
                k * v for k, v in result.retry_rounds_histogram.items()
            )
            # Windows include warmup reads; the result excludes them.
            assert recorder.total("sim.read.retry_rounds") >= rounds

    def test_windows_deterministic(self, shared_policy):
        dumps = []
        for _ in range(2):
            _, recorder, _ = run_des(shared_policy)
            dumps.append(json.dumps(recorder.to_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]


class TestQueueEngineWindows:
    def test_single_server_busy_reconciles(self, shared_policy):
        from repro.obs import MetricsRegistry
        from repro.sim import DesSimulationEngine, observe

        system = tiny_system("flexlevel", shared_policy)
        recorder = WindowedRecorder(window_us=500.0)
        registry = MetricsRegistry()
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.1,
            n_channels=1,
            retry_model=None,
            observers=observe(registry=registry, recorder=recorder),
        )
        engine.run(mixed_trace(300), "t")
        assert recorder.total("sim.arrivals") == 300
        snapshot = registry.snapshot()
        windowed = recorder.total("sim.channel.0.busy_us") + recorder.total(
            "sim.channel.0.gc_us"
        )
        assert windowed == pytest.approx(
            snapshot["sim.channel.0.busy_us"], rel=1e-9
        )
        assert system.ssd.observers == ()  # detached after the run
