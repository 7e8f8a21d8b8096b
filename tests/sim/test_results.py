"""Tests for simulation result aggregation."""

import numpy as np
import pytest

from repro.sim.results import DesSimulationResult
from repro.errors import ConfigurationError


def make_result():
    result = DesSimulationResult("flexlevel", "fin-2")
    for value in (100.0, 200.0, 300.0):
        result.record(False, value)
    for value in (50.0, 150.0):
        result.record(True, value)
    return result


class TestAggregates:
    def test_counts(self):
        result = make_result()
        assert result.n_requests == 5

    def test_means(self):
        result = make_result()
        assert result.mean_read_response_us() == pytest.approx(200.0)
        assert result.mean_write_response_us() == pytest.approx(100.0)
        assert result.mean_response_us() == pytest.approx(160.0)

    def test_percentile(self):
        result = make_result()
        assert result.percentile_response_us(100) == pytest.approx(300.0)
        assert result.percentile_response_us(0) == pytest.approx(50.0)

    def test_empty_result(self):
        result = DesSimulationResult("baseline", "none")
        assert result.mean_response_us() == 0.0
        assert result.percentile_response_us(99) == 0.0

    def test_summary_keys(self):
        result = make_result()
        result.stats = {"erase_blocks": 3}
        summary = result.summary()
        assert summary["n_requests"] == 5
        assert summary["stats.erase_blocks"] == 3

    def test_rejects_negative_response(self):
        with pytest.raises(ConfigurationError):
            make_result().record(False, -1.0)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ConfigurationError):
            make_result().percentile_response_us(101)


class TestSampleCap:
    def test_exact_below_cap(self):
        result = DesSimulationResult("s", "w", sample_cap=10)
        for value in (10.0, 20.0, 30.0):
            result.record(False, value)
        assert result.exact_samples
        assert result.percentile_response_us(50) == pytest.approx(20.0)

    def test_lists_bounded_at_cap(self):
        """Memory past the cap is O(histogram buckets), not O(requests)."""
        cap = 1_000
        result = DesSimulationResult("s", "w", sample_cap=cap)
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=5.0, sigma=0.8, size=100_000)
        for i, value in enumerate(samples):
            result.record(i % 4 == 0, float(value))
        assert not result.exact_samples
        assert len(result.read_responses_us) + len(result.write_responses_us) == cap
        assert result.n_requests == 100_000

    def test_streaming_percentiles_within_5pct_of_exact(self):
        """The acceptance bound: capped runs stay within 5 % at p99."""
        result = DesSimulationResult("s", "w", sample_cap=1_000)
        rng = np.random.default_rng(2015)
        samples = rng.lognormal(mean=5.5, sigma=0.9, size=100_000)
        for i, value in enumerate(samples):
            result.record(i % 3 == 0, float(value))
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert result.percentile_response_us(q) == pytest.approx(
                exact, rel=0.05
            ), f"p{q}"

    def test_mean_exact_at_any_scale(self):
        result = DesSimulationResult("s", "w", sample_cap=2)
        values = [10.0, 20.0, 30.0, 40.0]
        for value in values:
            result.record(False, value)
        assert result.mean_response_us() == pytest.approx(float(np.mean(values)))


class TestSummaryDedupe:
    def make_des_result(self):
        result = DesSimulationResult("flexlevel", "fin-2")
        for value in (100.0, 200.0, 300.0):
            result.record(False, value)
        result.channel_busy_us = [10.0, 20.0]
        result.makespan_us = 100.0
        return result

    def test_des_summary_percentile_keys_present_once(self):
        summary = self.make_des_result().summary()
        for key in ("p50_response_us", "p95_response_us", "p99_response_us"):
            assert key in summary

    def test_des_summary_computes_each_percentile_once(self, monkeypatch):
        """Pin the fix: the percentile triple is computed once."""
        result = self.make_des_result()
        calls = []
        original = DesSimulationResult.percentile_response_us

        def counting(self, q):
            calls.append(q)
            return original(self, q)

        monkeypatch.setattr(DesSimulationResult, "percentile_response_us", counting)
        result.summary()
        assert sorted(calls) == [50, 95, 99]

    def test_des_summary_extends_base_summary(self):
        """Response and stats keys first, then channel and retry keys."""
        result = self.make_des_result()
        result.stats = {"erase_blocks": 3.0}
        summary = result.summary()
        assert list(summary) == [
            "n_requests",
            "mean_response_us",
            "mean_read_response_us",
            "mean_write_response_us",
            "p50_response_us",
            "p95_response_us",
            "p99_response_us",
            "stats.erase_blocks",
            "n_channels",
            "makespan_us",
            "mean_channel_utilization",
            "mean_retry_rounds",
            "uncorrectable_reads",
            "uncorrectable_rate",
        ]
        assert summary["n_channels"] == 2
        assert summary["makespan_us"] == 100.0
