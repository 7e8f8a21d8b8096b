"""Tests for synthetic trace generation."""

import numpy as np
import pytest

from repro.traces.synthetic import SyntheticWorkload
from repro.errors import ConfigurationError


def make_workload(**overrides):
    params = dict(
        name="test",
        footprint_pages=2000,
        read_fraction=0.7,
        read_zipf_s=1.0,
        write_zipf_s=0.5,
        mean_request_pages=2.0,
        sequential_fraction=0.1,
        mean_interarrival_us=500.0,
    )
    params.update(overrides)
    return SyntheticWorkload(**params)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = make_workload().generate(200, seed=3)
        b = make_workload().generate(200, seed=3)
        assert a == b
        c = make_workload().generate(200, seed=4)
        assert a != c

    def test_timestamps_monotone(self):
        records = make_workload().generate(500, seed=1)
        times = [r.timestamp_us for r in records]
        assert times == sorted(times)

    def test_read_fraction_respected(self):
        records = make_workload(read_fraction=0.8).generate(5000, seed=1)
        reads = sum(1 for r in records if not r.is_write)
        assert reads / len(records) == pytest.approx(0.8, abs=0.03)

    def test_requests_stay_in_footprint(self):
        workload = make_workload(footprint_pages=500)
        for record in workload.generate(2000, seed=2):
            assert record.last_lpn < 500

    def test_mean_request_size(self):
        records = make_workload(mean_request_pages=3.0).generate(5000, seed=1)
        mean = np.mean([r.n_pages for r in records])
        assert mean == pytest.approx(3.0, rel=0.15)

    def test_interarrival_rate(self):
        records = make_workload(mean_interarrival_us=800.0).generate(5000, seed=1)
        span = records[-1].timestamp_us
        assert span / len(records) == pytest.approx(800.0, rel=0.1)

    def test_zipf_skew_concentrates_reads(self):
        skewed = make_workload(read_zipf_s=1.1, sequential_fraction=0.0)
        uniform = make_workload(read_zipf_s=0.0, sequential_fraction=0.0)

        def top_share(workload):
            counts = {}
            for record in workload.generate(8000, seed=5):
                if record.is_write:
                    continue
                counts[record.lpn] = counts.get(record.lpn, 0) + 1
            ranked = sorted(counts.values(), reverse=True)
            top = sum(ranked[: len(ranked) // 20])
            return top / sum(ranked)

        assert top_share(skewed) > top_share(uniform) + 0.1

    def test_sequential_fraction_produces_runs(self):
        sequential = make_workload(sequential_fraction=0.8).generate(2000, seed=6)
        runs = sum(
            1
            for prev, cur in zip(sequential, sequential[1:])
            if cur.lpn == prev.lpn + prev.n_pages
        )
        assert runs / len(sequential) > 0.5

    def test_expected_read_pages(self):
        workload = make_workload(read_fraction=0.5, mean_request_pages=2.0)
        assert workload.expected_read_pages(1000) == pytest.approx(1000.0)


class TestValidation:
    def test_rejects_bad_footprint(self):
        with pytest.raises(ConfigurationError):
            make_workload(footprint_pages=0)

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ConfigurationError):
            make_workload(read_fraction=1.5)

    def test_rejects_small_requests(self):
        with pytest.raises(ConfigurationError):
            make_workload(mean_request_pages=0.5)

    def test_rejects_zero_requests(self):
        with pytest.raises(ConfigurationError):
            make_workload().generate(0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed must be non-negative"):
            make_workload().generate(10, seed=-1)
