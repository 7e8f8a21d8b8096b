"""Array-native garbage collection against the scalar reference loops.

The victim pick, the slice-wise relocation and the cold-block pick must
reproduce the per-block / per-page loops in :mod:`tests.ftl.reference`
exactly: the same victim (or None), byte-equal mapping arrays and write
pointers, the same returned ``service`` float, the same durable record
log and the same :class:`~repro.errors.FtlError`.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.level_adjust import CellMode
from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.config import NandTiming, SsdConfig
from repro.ftl.recovery import RecoveryConfig, RecoveryManager
from repro.ftl.ssd import _BAD, _FREE, Ssd
from repro.ftl.wear_leveling import WearLeveler
from tests.ftl import reference as ref

_MODES = (CellMode.NORMAL, CellMode.REDUCED, CellMode.SLC)
_CODES = (_BAD, _FREE, 0, 1, 2)
_KEYS = [(mode, slot) for mode in CellMode for slot in ("host", "cold")]


def small_config(**overrides) -> SsdConfig:
    settings = {"n_blocks": 12, "pages_per_block": 8, "gc_free_block_threshold": 2}
    return SsdConfig(**{**settings, **overrides})


# --- victim pick ---------------------------------------------------------------


@st.composite
def block_states(draw):
    """Random block arrays: every mode code, partial and full write
    pointers, valid counts from a narrow range (so ties are common) and
    frontiers in both slots."""
    ssd = Ssd(small_config())
    n_blocks = ssd.config.n_blocks
    for block in range(n_blocks):
        ssd._block_mode[block] = draw(st.sampled_from(_CODES))
        usable = ssd.block_usable_pages(block) if ssd._block_mode[block] >= 0 else 0
        full = draw(st.booleans())
        write_ptr = usable if full else draw(st.integers(0, usable))
        ssd._block_write_ptr[block] = write_ptr
        ssd._block_valid[block] = draw(st.integers(max(0, write_ptr - 3), write_ptr))
    for key in _KEYS:
        ssd._active[key] = draw(st.none() | st.integers(0, n_blocks - 1))
    return ssd


@settings(max_examples=300, deadline=None)
@given(ssd=block_states())
def test_pick_victim_matches_scalar_loop(ssd):
    assert ssd._pick_victim() == ref.pick_victim(ssd)


def _closed_block(ssd, block, code, valid):
    ssd._block_mode[block] = code
    ssd._block_write_ptr[block] = ssd.block_usable_pages(block)
    ssd._block_valid[block] = valid


class TestPickVictimCases:
    def test_tie_goes_to_the_lowest_block(self):
        ssd = Ssd(small_config())
        for block in (3, 5, 9):
            _closed_block(ssd, block, 0, 2)
        _closed_block(ssd, 7, 1, 4)
        assert ssd._pick_victim() == ref.pick_victim(ssd) == 3

    @pytest.mark.parametrize("slot", ["host", "cold"])
    def test_active_frontiers_are_excluded(self, slot):
        ssd = Ssd(small_config())
        _closed_block(ssd, 2, 0, 1)
        _closed_block(ssd, 4, 0, 3)
        ssd._active[(CellMode.REDUCED, slot)] = 2
        assert ssd._pick_victim() == ref.pick_victim(ssd) == 4

    def test_open_full_free_and_bad_blocks_are_skipped(self):
        ssd = Ssd(small_config())
        _closed_block(ssd, 0, 0, 8)  # fully valid
        ssd._block_mode[1] = 2  # open SLC block
        ssd._block_write_ptr[1] = 3
        ssd._block_mode[2] = _BAD
        assert ssd._pick_victim() is None
        assert ref.pick_victim(ssd) is None


# --- relocation ----------------------------------------------------------------


def log_rows(manager) -> list[str]:
    """The durable record log, one ``repr`` per record (NaN-safe)."""
    return [repr(record) for record in manager._log]


def assert_same_state(actual: Ssd, expected: Ssd) -> None:
    for name in (
        "_l2p",
        "_p2l",
        "_page_valid",
        "_block_mode",
        "_block_write_ptr",
        "_block_valid",
        "_block_erase",
        "_write_time_hours",
        "_initial_age_hours",
    ):
        assert getattr(actual, name).tobytes() == getattr(expected, name).tobytes(), name
    assert list(actual._free_blocks) == list(expected._free_blocks)
    assert actual._active == expected._active
    assert actual.stats.snapshot() == expected.stats.snapshot()
    if expected.recovery is not None:
        assert log_rows(actual.recovery) == log_rows(expected.recovery)


def outcome(relocate, ssd, victim, slot):
    try:
        return ("ok", relocate(ssd, victim, slot).hex())
    except FtlError as error:
        return (type(error).__name__, str(error))


def seeded_ssd(seed: int, recovery: bool) -> Ssd:
    """A fragmented drive: mixed-mode overwrites and trims after a
    partly reduced prefill, with the durable record log optional."""
    config = small_config(
        n_blocks=24, timing=NandTiming(read_us=90.3, program_us=1000.7)
    )
    manager = RecoveryManager(RecoveryConfig(), config) if recovery else None
    prefill = int(config.logical_pages * 0.6)
    ssd = Ssd(
        config,
        prefill_pages=prefill,
        reduced_prefix_pages=prefill // 3,
        initial_age_hours=5.0,
        recovery=manager,
    )
    rng = np.random.default_rng(seed)
    for step in range(int(rng.integers(20, 160))):
        lpn = int(rng.integers(prefill))
        if rng.random() < 0.1:
            ssd.trim(lpn)
        else:
            mode = _MODES[int(rng.choice(3, p=[0.6, 0.3, 0.1]))]
            ssd.host_write(lpn, mode, now_us=1000.0 * step)
    return ssd


def relocation_cases():
    for seed in range(4):
        for recovery in (False, True):
            ssd = seeded_ssd(seed, recovery)
            active = {b for b in ssd._active.values() if b is not None}
            for victim in range(ssd.config.n_blocks):
                if ssd._block_mode[victim] < 0 or victim in active:
                    continue
                for slot in ("host", "cold"):
                    yield ssd, victim, slot


def frontier_room(ssd: Ssd, victim: int, slot: str) -> int:
    """Free pages left in the frontier the victim's pages move to."""
    frontier = ssd._active[(ssd._mode_of_block(victim), slot)]
    if frontier is None:
        return 0
    return ssd.block_usable_pages(frontier) - int(ssd._block_write_ptr[frontier])


def test_relocation_matches_scalar_loop():
    cases = splits = 0
    for ssd, victim, slot in relocation_cases():
        room = frontier_room(ssd, victim, slot)
        splits += 0 < room < ssd._block_valid[victim]
        actual, expected = copy.deepcopy(ssd), copy.deepcopy(ssd)
        got = outcome(Ssd._relocate_valid_pages, actual, victim, slot)
        want = outcome(ref.relocate_valid_pages, expected, victim, slot)
        assert got == want, (victim, slot)
        assert_same_state(actual, expected)
        cases += 1
    # Enough of them fill one destination block and continue in another.
    assert cases > 200 and splits > 20


@pytest.mark.parametrize("recovery", [False, True])
def test_relocation_into_a_partly_filled_frontier_splits_the_slice(recovery):
    """Seven valid pages and a frontier with three free slots: three go
    to the open block, four to a freshly taken one."""
    ssd = Ssd(
        small_config(),
        prefill_pages=15,
        recovery=RecoveryManager(RecoveryConfig(), small_config()) if recovery else None,
    )
    ssd.trim(3)  # block 0: 7 valid of 8, closed; block 1: 7 of 8, frontier
    ssd.host_write(14, CellMode.NORMAL, now_us=0.0)  # block 1 fills up
    ssd.host_write(9, CellMode.NORMAL, now_us=0.0)  # opens the next frontier
    for lpn in (8, 10, 11, 12):
        ssd.host_write(lpn, CellMode.NORMAL, now_us=0.0)
    frontier = ssd._active[(CellMode.NORMAL, "host")]
    assert 8 - ssd._block_write_ptr[frontier] == 3
    actual, expected = copy.deepcopy(ssd), copy.deepcopy(ssd)
    got = actual._relocate_valid_pages(0)
    want = ref.relocate_valid_pages(expected, 0)
    assert got.hex() == want.hex()
    assert_same_state(actual, expected)
    assert actual._block_write_ptr[frontier] == 8
    assert actual._active[(CellMode.NORMAL, "host")] != frontier


class TestRelocationErrors:
    def ssd(self):
        ssd = Ssd(small_config(), prefill_pages=20)
        ssd.trim(2)
        ssd.trim(5)
        return ssd

    def test_out_of_space_leaves_unmoved_pages_mapped(self):
        """The frontier has room for one page and the free pool is
        empty: one page moves, the other six stay mapped on the victim."""
        ssd = Ssd(small_config(), prefill_pages=15)
        ssd.trim(3)
        ssd._free_blocks.clear()
        with pytest.raises(OutOfSpaceError):
            ssd._relocate_valid_pages(0)
        assert ssd._block_valid[0] == 6 and ssd._block_valid[1] == 8
        mapped = np.flatnonzero(ssd._l2p >= 0)
        assert mapped.size == 14
        assert ssd._page_valid[ssd._l2p[mapped]].all()
        assert (ssd._p2l[ssd._l2p[mapped]] == mapped).all()

    def test_negative_valid_count(self):
        ssd = self.ssd()
        ssd._block_valid[0] -= 1  # fewer than the bitmap holds
        actual, expected = copy.deepcopy(ssd), copy.deepcopy(ssd)
        got = outcome(Ssd._relocate_valid_pages, actual, 0, "host")
        want = outcome(ref.relocate_valid_pages, expected, 0, "host")
        assert got == want == ("FtlError", "negative valid count in block 0")

    def test_valid_page_past_the_write_pointer(self):
        ssd = self.ssd()
        ssd._block_write_ptr[0] = 6  # page 6 and 7 stay behind
        actual, expected = copy.deepcopy(ssd), copy.deepcopy(ssd)
        got = outcome(Ssd._relocate_valid_pages, actual, 0, "host")
        want = outcome(ref.relocate_valid_pages, expected, 0, "host")
        assert got == want == ("FtlError", "victim block 0 still has valid pages")
        assert_same_state(actual, expected)


# --- cold-block pick -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_blocks=st.integers(1, 12),
    threshold=st.integers(1, 4),
)
def test_pick_cold_block_matches_scalar_loop(data, n_blocks, threshold):
    counts = st.lists(st.integers(0, 4), min_size=n_blocks, max_size=n_blocks)
    erase = np.array(data.draw(counts), dtype=np.int32)
    usable = np.array(data.draw(counts), dtype=np.int32)
    valid = np.array(data.draw(counts), dtype=np.int32)
    excluded = set(data.draw(st.lists(st.integers(0, n_blocks - 1), max_size=4)))
    leveler = WearLeveler(spread_threshold=threshold)
    assert leveler.pick_cold_block(erase, valid, usable, excluded) == ref.pick_cold_block(
        threshold, erase, valid, usable, excluded
    )
