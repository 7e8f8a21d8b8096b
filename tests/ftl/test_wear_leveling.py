"""Tests for static wear leveling."""

import numpy as np
import pytest

from repro.core.level_adjust import CellMode
from repro.ftl.config import SsdConfig
from repro.ftl.ssd import Ssd
from repro.ftl.wear_leveling import WearLeveler, erase_spread
from repro.errors import ConfigurationError


class TestPolicyUnit:
    def test_should_check_interval(self):
        leveler = WearLeveler(check_interval=3)
        assert leveler.should_check(3)
        assert leveler.should_check(6)
        assert not leveler.should_check(4)

    def test_pick_cold_block(self):
        leveler = WearLeveler(spread_threshold=5)
        erase = np.array([10, 1, 9, 0])
        valid = np.array([4, 4, 4, 2])
        usable = np.array([4, 4, 4, 4])
        # block 3 is cold but not fully valid; block 1 qualifies
        assert leveler.pick_cold_block(erase, valid, usable, set()) == 1

    def test_pick_cold_block_tie_order(self):
        """Erase count ascending, then valid count descending, then the
        lowest block index."""
        leveler = WearLeveler(spread_threshold=5)
        erase = np.array([10, 1, 1, 1, 2])
        valid = np.array([4, 3, 4, 4, 4])
        usable = np.array([4, 3, 4, 4, 4])
        assert leveler.pick_cold_block(erase, valid, usable, set()) == 2
        assert leveler.pick_cold_block(erase, valid, usable, {2}) == 3
        assert leveler.pick_cold_block(erase, valid, usable, {2, 3}) == 1
        assert leveler.pick_cold_block(erase, valid, usable, {1, 2, 3}) == 4

    def test_no_candidate_below_threshold(self):
        leveler = WearLeveler(spread_threshold=5)
        erase = np.array([3, 1, 2])
        valid = usable = np.array([4, 4, 4])
        assert leveler.pick_cold_block(erase, valid, usable, set()) is None

    def test_excluded_blocks_skipped(self):
        leveler = WearLeveler(spread_threshold=2)
        erase = np.array([5, 0])
        valid = usable = np.array([4, 4])
        assert leveler.pick_cold_block(erase, valid, usable, {1}) is None

    def test_erase_spread(self):
        assert erase_spread(np.array([3, 9, 5])) == 6
        with pytest.raises(ConfigurationError):
            erase_spread(np.array([]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WearLeveler(spread_threshold=0)
        with pytest.raises(ConfigurationError):
            WearLeveler(check_interval=0)


def _hammer(ssd, footprint, n_writes, seed=0):
    rng = np.random.default_rng(seed)
    # skewed writes: a hot half of the footprint gets most of the traffic
    for _ in range(n_writes):
        if rng.random() < 0.9:
            lpn = int(rng.integers(footprint // 2))
        else:
            lpn = int(rng.integers(footprint))
        ssd.host_write(lpn, CellMode.NORMAL, now_us=0.0)


class TestIntegration:
    def make_ssd(self, leveler):
        config = SsdConfig(
            n_blocks=64, pages_per_block=16, gc_free_block_threshold=2
        )
        prefill = int(config.logical_pages * 0.9)
        return Ssd(config, prefill_pages=prefill, wear_leveler=leveler), prefill

    def test_leveling_overhead_bounded_on_mixed_workload(self):
        """On a workload whose 'cold' data still sees occasional writes,
        static wear leveling cannot help much — but its relocation
        overhead must stay bounded (no churn storms)."""
        plain, footprint = self.make_ssd(None)
        leveled, _ = self.make_ssd(WearLeveler(spread_threshold=4, check_interval=2))
        _hammer(plain, footprint, 8000)
        _hammer(leveled, footprint, 8000)
        assert leveled.stats.wear_level_moves > 0
        assert (
            leveled.stats.write_amplification()
            < plain.stats.write_amplification() * 1.5
        )

    def test_leveling_parks_cold_data_in_worn_blocks(self):
        """With a truly static cold region, greedy-only concentrates all
        wear on the hot blocks; the leveler spreads it."""
        config = SsdConfig(
            n_blocks=64, pages_per_block=16, gc_free_block_threshold=2
        )
        prefill = int(config.logical_pages * 0.95)
        rng = np.random.default_rng(5)

        def hammer(ssd):
            hot = prefill // 4
            for _ in range(8000):
                ssd.host_write(int(rng.integers(hot)), CellMode.NORMAL, now_us=0.0)

        plain = Ssd(config, prefill_pages=prefill)
        hammer(plain)
        leveled = Ssd(
            config,
            prefill_pages=prefill,
            wear_leveler=WearLeveler(spread_threshold=6, check_interval=6),
        )
        hammer(leveled)
        assert leveled._block_erase.max() < plain._block_erase.max()

    def test_leveling_preserves_mapping(self):
        leveled, footprint = self.make_ssd(WearLeveler(spread_threshold=4, check_interval=2))
        _hammer(leveled, footprint, 4000, seed=3)
        mapped = leveled._l2p >= 0
        ppns = leveled._l2p[mapped]
        assert (leveled._p2l[ppns] == np.flatnonzero(mapped)).all()
        assert leveled._page_valid[ppns].all()

    def test_disabled_by_default(self):
        plain, footprint = self.make_ssd(None)
        _hammer(plain, footprint, 3000)
        assert plain.stats.wear_level_moves == 0
