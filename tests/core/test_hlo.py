"""Tests for the HLO identification rule (paper §5)."""

import pytest

from repro.core.hlo import HloIdentifier, OverheadRule
from repro.core.hotness import MultiBloomHotness
from repro.errors import ConfigurationError


class TestOverheadRule:
    def test_paper_defaults(self):
        rule = OverheadRule()
        assert rule.freq_levels == 2
        assert rule.sensing_buckets == 2
        assert rule.threshold == 4

    def test_zero_extra_levels_is_bucket_one(self):
        rule = OverheadRule()
        assert rule.sensing_bucket(0) == 1

    def test_any_extra_level_reaches_bucket_two(self):
        rule = OverheadRule(sensing_buckets=2)
        for k in range(1, 8):
            assert rule.sensing_bucket(k) == 2

    def test_buckets_monotone(self):
        rule = OverheadRule(sensing_buckets=4)
        buckets = [rule.sensing_bucket(k) for k in range(8)]
        assert buckets == sorted(buckets)
        assert max(buckets) == 4

    def test_overhead_is_product(self):
        rule = OverheadRule(freq_levels=3, sensing_buckets=3, threshold=6)
        assert rule.overhead(2, 3) == 6
        assert rule.is_hlo(2, 3)
        assert not rule.is_hlo(2, 2)

    def test_hlo_needs_both_hot_and_expensive(self):
        rule = OverheadRule()  # threshold 4 = 2 x 2
        assert rule.is_hlo(2, 2)
        assert not rule.is_hlo(2, 1)  # hot but cheap reads
        assert not rule.is_hlo(1, 2)  # expensive but cold

    def test_bounds_checked(self):
        rule = OverheadRule()
        with pytest.raises(ConfigurationError):
            rule.overhead(3, 1)
        with pytest.raises(ConfigurationError):
            rule.sensing_bucket(-1)

    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            OverheadRule(threshold=5)
        with pytest.raises(ConfigurationError):
            OverheadRule(threshold=0)


class TestIdentifier:
    def make_identifier(self):
        hotness = MultiBloomHotness(n_filters=4, window=4, freq_levels=2)
        return HloIdentifier(hotness=hotness)

    def test_cold_page_never_hlo(self):
        identifier = self.make_identifier()
        assert not identifier.observe_read(1, extra_levels=6)

    def test_hot_cheap_page_not_hlo(self):
        identifier = self.make_identifier()
        for _ in range(20):
            assert not identifier.observe_read(1, extra_levels=0)

    def test_hot_expensive_page_becomes_hlo(self):
        identifier = self.make_identifier()
        results = [identifier.observe_read(1, extra_levels=3) for _ in range(20)]
        assert not results[0]
        assert results[-1]

    def test_hlo_fraction(self):
        identifier = self.make_identifier()
        for _ in range(20):
            identifier.observe_read(1, extra_levels=3)
        assert 0.0 < identifier.hlo_fraction() < 1.0

    def test_fraction_zero_before_reads(self):
        assert self.make_identifier().hlo_fraction() == 0.0

    def test_freq_levels_must_agree(self):
        with pytest.raises(ConfigurationError):
            HloIdentifier(
                rule=OverheadRule(freq_levels=3),
                hotness=MultiBloomHotness(freq_levels=2),
            )

    def test_negative_extra_levels_rejected(self):
        identifier = self.make_identifier()
        identifier.observe_read(1, extra_levels=2)  # warm the verdict memo
        with pytest.raises(ConfigurationError):
            identifier.observe_read(1, extra_levels=-1)

    def test_memoised_verdicts_match_rule(self):
        """observe_read agrees with scoring every read through the rule."""
        rule = OverheadRule(freq_levels=3, sensing_buckets=3)
        identifier = HloIdentifier(
            rule=rule, hotness=MultiBloomHotness(window=5, freq_levels=3)
        )
        reference = MultiBloomHotness(window=5, freq_levels=3)
        for i in range(400):
            lpn, extra = i % 7, (i * 5) % 9
            reference.record_read(lpn)
            expected = rule.is_hlo(
                reference.frequency_level(lpn), rule.sensing_bucket(extra)
            )
            assert identifier.observe_read(lpn, extra) == expected
