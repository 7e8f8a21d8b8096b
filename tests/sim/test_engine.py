"""Tests for the trace-driven engine as a single FIFO queue.

With one channel and no read retry the DES engine is the single-queue
model behind the paper's Fig. 6 / Fig. 7 response-time gaps; these are
its queueing, warmup, validation and accounting cases.
"""

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine, observe
from repro.traces.schema import TraceRecord
from repro.errors import ConfigurationError


def tiny_system(name="ldpc-in-ssd", shared_policy=None, **overrides):
    ssd = SsdConfig(
        n_blocks=64, pages_per_block=16, gc_free_block_threshold=2, **overrides
    )
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system(name, config, level_adjust=shared_policy)


def single_queue(system, **kwargs):
    """The engine as one FIFO queue: one channel, no read retry."""
    return DesSimulationEngine(system, n_channels=1, retry_model=None, **kwargs)


class TestEngine:
    def test_runs_and_counts(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(i * 1000.0, i % 50, 1, i % 3 == 0) for i in range(100)]
        result = single_queue(system, warmup_fraction=0.0).run(trace, "t")
        assert result.n_requests == 100
        assert result.mean_response_us() > 0

    def test_warmup_excluded_from_recording(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(i * 1000.0, i % 50, 1, False) for i in range(100)]
        result = single_queue(system, warmup_fraction=0.5).run(trace, "t")
        assert result.n_requests == 50

    def test_queueing_under_burst(self, shared_policy):
        """Requests arriving simultaneously must queue: later responses
        include the earlier requests' service times."""
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(0.0, lpn, 1, False) for lpn in range(10)]
        result = single_queue(system, warmup_fraction=0.0).run(trace, "t")
        responses = result.read_responses_us
        assert responses[-1] > responses[0]

    def test_sparse_arrivals_no_queueing(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(i * 1e6, i, 1, False) for i in range(10)]
        result = single_queue(system, warmup_fraction=0.0).run(trace, "t")
        responses = result.read_responses_us
        assert max(responses) - min(responses) < 1000.0

    def test_background_work_delays_later_requests(self, shared_policy):
        """A write burst's flash work lands on the next reads' latency."""
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(0.0, lpn, 1, True) for lpn in range(64)]
        trace += [TraceRecord(1.0 + i, 100 + i, 1, False) for i in range(5)]
        result = single_queue(system, warmup_fraction=0.0).run(trace, "t")
        # the reads arrive immediately after the burst and must wait
        assert min(result.read_responses_us) > 100.0

    def test_empty_trace_rejected(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        with pytest.raises(ConfigurationError):
            single_queue(system).run([], "t")

    def test_bad_params_rejected(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        with pytest.raises(ConfigurationError):
            single_queue(system, warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            DesSimulationEngine(system, n_channels=0)

    def test_warmup_swallowing_all_requests_rejected(self, shared_policy):
        """A warmup fraction that rounds to the whole trace must fail
        loudly, not return an empty result with NaN aggregates."""
        system = tiny_system(shared_policy=shared_policy)
        engine = single_queue(system, warmup_fraction=0.0)
        engine.warmup_fraction = 1.0  # float edge: rounds to everything
        trace = [TraceRecord(i * 1000.0, i, 1, False) for i in range(10)]
        with pytest.raises(ConfigurationError, match="warmup"):
            engine.run(trace, "t")

    def test_stats_snapshot_attached(self, shared_policy):
        system = tiny_system(shared_policy=shared_policy)
        trace = [TraceRecord(i * 1000.0, i % 20, 1, True) for i in range(200)]
        result = single_queue(system, warmup_fraction=0.0).run(trace, "t")
        # host_write_pages counts flash-level writes: buffered rewrites
        # of the 20 distinct pages are absorbed, so it stays below 200.
        assert 0 < result.stats["host_write_pages"] <= 200
        assert result.stats["buffer_hits"] >= 0
        assert "residual_backlog_us" in result.stats

    def test_single_server_utilization_gauges(self, shared_policy):
        from repro.obs import MetricsRegistry

        system = tiny_system(shared_policy=shared_policy)
        registry = MetricsRegistry()
        trace = [TraceRecord(i * 500.0, i % 50, 2, i % 3 == 0) for i in range(200)]
        engine = single_queue(
            system, warmup_fraction=0.0, observers=observe(registry=registry)
        )
        engine.run(trace, "t")
        snapshot = registry.snapshot()
        busy = snapshot["sim.channel.0.busy_us"]
        makespan = snapshot["sim.makespan_us"]
        utilization = snapshot["sim.channel.0.utilization"]
        assert busy > 0.0
        assert makespan > 0.0
        assert utilization == pytest.approx(busy / makespan, rel=1e-12)
        assert 0.0 <= utilization <= 1.0 + 1e-9
