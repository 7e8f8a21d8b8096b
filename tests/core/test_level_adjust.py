"""Tests for the LevelAdjust policy (BER / sensing oracle)."""

import pytest

from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.errors import ConfigurationError


class TestPolicy:
    def test_reduced_mode_below_normal_ber(self, shared_policy):
        normal = shared_policy.ber(CellMode.NORMAL, 6000, 720)
        reduced = shared_policy.ber(CellMode.REDUCED, 6000, 720)
        assert reduced < normal

    def test_reduced_mode_needs_no_extra_levels(self, shared_policy):
        """The FlexLevel design point: NUNMA 3 keeps the reduced-state
        BER below the 4e-3 extra-sensing trigger (paper §6.1)."""
        for pe in (4000, 5000, 6000):
            for age in (24, 168, 720):
                assert shared_policy.extra_levels(CellMode.REDUCED, pe, age) == 0

    def test_normal_mode_needs_levels_when_old(self, shared_policy):
        assert shared_policy.extra_levels(CellMode.NORMAL, 6000, 720) > 0

    def test_fresh_normal_page_needs_none(self, shared_policy):
        assert shared_policy.extra_levels(CellMode.NORMAL, 6000, 0) == 0

    def test_should_reduce_tracks_normal_levels(self, shared_policy):
        assert shared_policy.should_reduce(6000, 720)
        assert not shared_policy.should_reduce(1000, 1)

    def test_reduction_benefit_non_negative(self, shared_policy):
        for pe in (2000, 6000):
            for age in (0, 720):
                assert shared_policy.reduction_benefit(pe, age) >= 0

    def test_ber_monotone_in_age(self, shared_policy):
        values = [
            shared_policy.ber(CellMode.NORMAL, 5000, age) for age in (1, 48, 720)
        ]
        assert values == sorted(values)

    def test_caching_stability(self, shared_policy):
        first = shared_policy.ber(CellMode.NORMAL, 5000, 100)
        second = shared_policy.ber(CellMode.NORMAL, 5000, 100)
        assert first == second

    def test_age_snapping(self, shared_policy):
        """Ages snap to the cache grid: nearby ages share an answer."""
        a = shared_policy.ber(CellMode.NORMAL, 5000, 24.0)
        b = shared_policy.ber(CellMode.NORMAL, 5000, 25.0)
        assert a == b

    def test_pe_bucketing(self, shared_policy):
        a = shared_policy.ber(CellMode.NORMAL, 5000, 24.0)
        b = shared_policy.ber(CellMode.NORMAL, 5100, 24.0)
        assert a == b

    def test_rejects_negative_inputs(self, shared_policy):
        with pytest.raises(ConfigurationError):
            shared_policy.ber(CellMode.NORMAL, -1, 24)
        with pytest.raises(ConfigurationError):
            shared_policy.ber(CellMode.NORMAL, 1000, -5)

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigurationError):
            LevelAdjustPolicy(age_grid_hours=(10.0, 5.0))
        with pytest.raises(ConfigurationError):
            LevelAdjustPolicy(pe_bucket=0)


class TestLevelsAndBer:
    """The fused lookup moves the cache counters exactly as
    ``extra_levels()`` followed by ``ber()`` did."""

    PAGES = [
        (CellMode.NORMAL, 6000, 720.0),
        (CellMode.NORMAL, 5100, 25.0),
        (CellMode.REDUCED, 4000, 168.0),
        (CellMode.SLC, 0, 0.0),
    ]

    @pytest.fixture
    def fresh(self, shared_policy):
        """Factory of cold policies reusing the session's analyzers."""

        def build():
            return LevelAdjustPolicy(
                normal_analyzer=shared_policy._analyzers[CellMode.NORMAL],
                reduced_analyzer=shared_policy._analyzers[CellMode.REDUCED],
                slc_analyzer=shared_policy._analyzers[CellMode.SLC],
            )

        return build

    @staticmethod
    def counters(policy):
        return policy.cache_hits, policy.cache_misses

    def test_cold_then_warm(self, fresh):
        fused, split = fresh(), fresh()
        for _ in range(2):  # first pass cold, second warm
            for page in self.PAGES:
                result = fused.levels_and_ber(*page)
                assert result == (split.extra_levels(*page), split.ber(*page))
                assert self.counters(fused) == self.counters(split)
        # Cold: one miss + one hit per page; warm: two hits per page.
        n = len(self.PAGES)
        assert self.counters(fused) == (3 * n, n)

    def test_cold_key_counts_one_miss_one_hit(self, fresh):
        policy = fresh()
        policy.levels_and_ber(*self.PAGES[0])
        assert self.counters(policy) == (1, 1)
        policy.levels_and_ber(*self.PAGES[0])
        assert self.counters(policy) == (3, 1)

    @pytest.mark.parametrize("first", ["ber", "extra_levels"])
    def test_single_query_first(self, fresh, first):
        fused, split = fresh(), fresh()
        for page in self.PAGES:
            getattr(fused, first)(*page)
            getattr(split, first)(*page)
            assert fused.levels_and_ber(*page) == (
                split.extra_levels(*page),
                split.ber(*page),
            )
            assert self.counters(fused) == self.counters(split)

    def test_rejects_negative_inputs(self, fresh):
        with pytest.raises(ConfigurationError):
            fresh().levels_and_ber(CellMode.NORMAL, -1, 24)
