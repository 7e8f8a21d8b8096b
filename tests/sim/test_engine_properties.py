"""Property tests for the engine's queueing discipline as a single FIFO queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.systems import SystemConfig, build_system
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine
from repro.traces.schema import TraceRecord


def make_system(policy):
    ssd = SsdConfig(n_blocks=64, pages_per_block=16, gc_free_block_threshold=2)
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system("ldpc-in-ssd", config, level_adjust=policy)


def run_single_queue(system, trace):
    engine = DesSimulationEngine(
        system, warmup_fraction=0.0, n_channels=1, retry_model=None
    )
    return engine.run(trace, "prop")


@pytest.fixture(scope="module")
def module_policy():
    from repro.core.level_adjust import LevelAdjustPolicy

    return LevelAdjustPolicy()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 60),
    rate=st.floats(50.0, 5000.0),
)
def test_property_responses_cover_own_service(module_policy, seed, n, rate):
    """Every response is at least the device's fast-path latency for a
    flash read, and never negative for any request type."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(rate, size=n))
    trace = [
        TraceRecord(float(times[i]), int(rng.integers(100)), 1, bool(rng.random() < 0.3))
        for i in range(n)
    ]
    system = make_system(module_policy)
    result = run_single_queue(system, trace)
    assert result.n_requests == n
    for response in result.read_responses_us:
        assert response >= system.config.ssd.timing.buffer_hit_us
    for response in result.write_responses_us:
        assert response >= 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_work_conservation(module_policy, seed):
    """Doubling every inter-arrival gap can only reduce responses
    (less queueing, identical work)."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(200.0, size=40)
    lpns = rng.integers(0, 100, size=40)
    is_write = rng.random(40) < 0.3

    def run(scale):
        times = np.cumsum(gaps * scale)
        trace = [
            TraceRecord(float(times[i]), int(lpns[i]), 1, bool(is_write[i]))
            for i in range(40)
        ]
        system = make_system(module_policy)
        return run_single_queue(system, trace)

    fast = run(1.0)
    slow = run(4.0)
    assert slow.mean_response_us() <= fast.mean_response_us() + 1e-6
