"""One-pass ``Ssd.read_info`` against the helper-composed oracle.

The host read lookup must reproduce :func:`tests.ftl.reference.read_info`
on a drive churned by host writes, garbage collection, mode migrations
and trims: every field bit for bit and type for type (the data age and
the P/E count key the BER memo), the same read counters and observer
clock, and the same errors for an out-of-range LPN and for a mapping
that points into a free or retired block.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.level_adjust import CellMode
from repro.errors import ConfigurationError, FtlError
from repro.ftl.config import SsdConfig
from repro.ftl.ssd import _BAD, _FREE, Ssd
from repro.sim.des.observers import RunObserver
from repro.units import HOUR_US
from tests.ftl import reference as ref

_WRITE_MODES = (CellMode.NORMAL, CellMode.NORMAL, CellMode.NORMAL, CellMode.REDUCED)


def exact(info) -> tuple:
    """Each field's type and exact value; floats by their hex bits."""
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in info
    )


def churned_ssd(initial_pe: float, observed: bool, seed: int = 3) -> tuple[Ssd, float]:
    """A small drive after host writes, GC, migrations and trims.

    Returns the drive and the virtual time of its last operation.  The
    top tenth of the logical space is never prefilled or written, so
    unmapped pages stay readable next to trimmed ones.
    """
    config = SsdConfig(
        n_blocks=48, pages_per_block=16, gc_free_block_threshold=2,
        initial_pe_cycles=initial_pe,
    )
    n_logical = config.logical_pages
    prefill = int(0.6 * n_logical)
    rng = np.random.default_rng(seed)
    ssd = Ssd(
        config,
        prefill_pages=prefill,
        reduced_prefix_pages=prefill // 8,
        initial_age_hours=rng.exponential(250.0, size=prefill),
    )
    if observed:
        ssd.attach((RunObserver(),))
    written = int(0.9 * n_logical)
    now_us = 0.0
    for _ in range(3_000):
        now_us += float(rng.exponential(HOUR_US / 8))
        lpn = int(rng.integers(0, written))
        op = rng.random()
        if op < 0.7:
            mode = _WRITE_MODES[int(rng.integers(0, len(_WRITE_MODES)))]
            ssd.host_write(lpn, mode, now_us)
        elif op < 0.9:
            if ssd.mode_of(lpn) is not None:
                target = CellMode.REDUCED if rng.random() < 0.5 else CellMode.NORMAL
                ssd.migrate(lpn, target, now_us)
        else:
            ssd.trim(lpn)
    stats = ssd.stats
    assert stats.gc_runs > 0 and stats.migration_program_pages > 0
    assert stats.trimmed_pages > 0
    return ssd, now_us


@pytest.mark.parametrize("initial_pe", [6000, 4500.0])
@pytest.mark.parametrize("observed", [False, True])
def test_read_info_matches_helper_composition(initial_pe, observed):
    ssd, end_us = churned_ssd(initial_pe, observed)
    actual, expected = ssd, copy.deepcopy(ssd)
    n_logical = ssd.config.logical_pages
    mapped = [lpn for lpn in range(n_logical) if ssd.mode_of(lpn) is not None]
    modes = {ssd.mode_of(lpn) for lpn in mapped}
    never_rewritten = np.isnan(ssd._write_time_hours[mapped]).sum()
    assert len(mapped) < n_logical and modes == {CellMode.NORMAL, CellMode.REDUCED}
    assert 0 < never_rewritten < len(mapped)
    reads_before = ssd.stats.host_read_pages, ssd.stats.flash_read_pages
    # Before, inside and after the churn: early reads clamp the age of
    # rewritten pages at zero.
    for now_us in (0.0, end_us / 3, end_us, end_us + 1234.5 * HOUR_US):
        for lpn in range(n_logical):
            got = actual.read_info(lpn, now_us)
            want = ref.read_info(expected, lpn, now_us)
            assert exact(got) == exact(want), (lpn, now_us)
        assert actual.stats.snapshot() == expected.stats.snapshot()
        assert actual._window_now_us == expected._window_now_us
    reads = actual.stats.host_read_pages, actual.stats.flash_read_pages
    assert reads == (reads_before[0] + 4 * n_logical, reads_before[1] + 4 * len(mapped))


@pytest.mark.parametrize("lpn_offset", [-1, 0, 7])
def test_out_of_range_lpn_raises_configuration_error(lpn_offset):
    ssd, _ = churned_ssd(6000.0, observed=True)
    lpn = ssd.config.logical_pages + lpn_offset if lpn_offset >= 0 else lpn_offset
    oracle = copy.deepcopy(ssd)
    with pytest.raises(ConfigurationError) as got:
        ssd.read_info(lpn, 5.0)
    with pytest.raises(ConfigurationError) as want:
        ref.read_info(oracle, lpn, 5.0)
    assert str(got.value) == str(want.value)
    assert ssd.stats.snapshot() == oracle.stats.snapshot()


@pytest.mark.parametrize("code", [_FREE, _BAD], ids=["free", "retired"])
def test_read_routed_to_a_block_without_mode_raises_ftl_error(code):
    ssd, end_us = churned_ssd(6000.0, observed=False)
    lpn = next(
        lpn for lpn in range(ssd.config.logical_pages) if ssd.mode_of(lpn) is not None
    )
    block = int(ssd._l2p[lpn]) // ssd.config.pages_per_block
    ssd._block_mode[block] = code
    oracle = copy.deepcopy(ssd)
    with pytest.raises(FtlError) as got:
        ssd.read_info(lpn, end_us)
    with pytest.raises(FtlError) as want:
        ref.read_info(oracle, lpn, end_us)
    assert str(got.value) == str(want.value)
    assert ssd.stats.snapshot() == oracle.stats.snapshot()
