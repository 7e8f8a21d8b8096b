"""Scalar reference implementations of the array-native GC kernels and
of the host read lookup.

These are the per-block victim scan, the per-page relocation loop and
the per-candidate cold-block pick the FTL used before garbage
collection worked on whole arrays, kept as differential oracles: the
production code must pick the same victim (or None), leave byte-equal
mapping arrays and write pointers, return the same ``service`` float
and raise the same :class:`~repro.errors.FtlError`.

:func:`read_info` is ``Ssd.read_info`` as it was composed from five
helpers (LPN check, window tick, block mode, ``np.isnan``-based data
age, current P/E) before the lookup became one pass: the production
read must return the same fields, bit for bit and type for type, move
the same counters and raise the same errors.

They drive an :class:`~repro.ftl.ssd.Ssd` through its private block
arrays and its scalar ``_invalidate`` / ``_allocate_page`` primitives,
exactly as the old methods did.
"""

from __future__ import annotations

import numpy as np

from repro.core.level_adjust import CellMode
from repro.errors import ConfigurationError, FtlError
from repro.ftl.ssd import _BAD, _FREE, _INT_TO_MODE, _MODE_TO_INT, PageReadInfo, Ssd
from repro.units import us_to_hours


def usable_pages_by_mode(ssd: Ssd, mode: CellMode) -> int:
    """The old per-mode branch chain over the config properties."""
    if mode is CellMode.NORMAL:
        return ssd.config.pages_per_block
    if mode is CellMode.REDUCED:
        return ssd.config.reduced_pages_per_block
    return ssd.config.slc_pages_per_block


def pick_victim(ssd: Ssd) -> int | None:
    """The non-active, non-free block with the fewest valid pages; the
    lowest block index wins a tie (strict ``<`` over ascending blocks)."""
    active_blocks = {b for b in ssd._active.values() if b is not None}
    best = None
    best_key = None
    for block in range(ssd.config.n_blocks):
        if ssd._block_mode[block] in (_FREE, _BAD) or block in active_blocks:
            continue
        mode = ssd._mode_of_block(block)
        usable = usable_pages_by_mode(ssd, mode)
        if ssd._block_write_ptr[block] < usable:
            continue  # still open for writes
        valid = int(ssd._block_valid[block])
        if valid >= usable:
            continue  # nothing to reclaim
        key = valid
        if best_key is None or key < best_key:
            best, best_key = block, key
    return best


def relocate_valid_pages(ssd: Ssd, victim: int, slot: str = "host") -> float:
    """Copy every valid page off ``victim`` one page at a time."""
    service = 0.0
    mode = ssd._mode_of_block(victim)
    ppb = ssd.config.pages_per_block
    base = victim * ppb
    for offset in range(int(ssd._block_write_ptr[victim])):
        ppn = base + offset
        if not ssd._page_valid[ppn]:
            continue
        lpn = int(ssd._p2l[ppn])
        age_hours = ssd._write_time_hours[lpn]
        service += ssd.config.timing.read_us
        ssd.stats.flash_read_pages += 1
        ssd._invalidate(ppn)
        block, offset_new = ssd._allocate_page(mode, slot)
        new_ppn = block * ppb + offset_new
        ssd._l2p[lpn] = new_ppn
        ssd._p2l[new_ppn] = lpn
        ssd._page_valid[new_ppn] = True
        ssd._block_valid[block] += 1
        ssd._write_time_hours[lpn] = age_hours
        if ssd.recovery is not None:
            ssd.recovery.record_program(
                lpn,
                new_ppn,
                _MODE_TO_INT[mode],
                "gc",
                write_time_hours=float(age_hours),
                initial_age_hours=float(ssd._initial_age_hours[lpn]),
            )
        service += ssd.config.timing.program_us
        ssd.stats.gc_program_pages += 1
    if ssd._block_valid[victim] != 0:
        raise FtlError(f"victim block {victim} still has valid pages")
    return service


def pick_cold_block(
    spread_threshold: int,
    erase_counts: np.ndarray,
    valid_counts: np.ndarray,
    usable_counts: np.ndarray,
    excluded: set[int],
) -> int | None:
    """The old per-candidate loop of ``WearLeveler.pick_cold_block``."""
    candidates = []
    max_erase = int(erase_counts.max())
    for block in range(erase_counts.shape[0]):
        if block in excluded:
            continue
        if valid_counts[block] < usable_counts[block]:
            continue
        if max_erase - int(erase_counts[block]) < spread_threshold:
            continue
        candidates.append(block)
    if not candidates:
        return None
    return min(candidates, key=lambda b: (int(erase_counts[b]), -int(valid_counts[b])))


# --- host read lookup ------------------------------------------------------------


def read_info(ssd: Ssd, lpn: int, now_us: float) -> PageReadInfo:
    """The helper-composed host read lookup."""
    _check_lpn(ssd, lpn)
    _window_tick(ssd, now_us)
    ssd.stats.host_read_pages += 1
    ppn = ssd._l2p[lpn]
    if ppn == _FREE:
        return PageReadInfo(lpn, CellMode.NORMAL, 0.0, _current_pe(ssd, None))
    block = int(ppn) // ssd.config.pages_per_block
    mode = _mode_of_block(ssd, block)
    age = _age_hours(ssd, lpn, now_us)
    ssd.stats.flash_read_pages += 1
    return PageReadInfo(lpn, mode, age, _current_pe(ssd, block), block)


def _check_lpn(ssd: Ssd, lpn: int) -> None:
    if not 0 <= lpn < ssd._logical_pages:
        raise ConfigurationError(f"LPN {lpn} outside [0, {ssd._logical_pages})")


def _window_tick(ssd: Ssd, now_us: float) -> None:
    if ssd.observers and now_us > ssd._window_now_us:
        ssd._window_now_us = now_us


def _mode_of_block(ssd: Ssd, block: int) -> CellMode:
    mode = ssd._block_mode[block]
    if mode == _FREE:
        raise FtlError(f"block {block} is free, it has no mode")
    if mode == _BAD:
        raise FtlError(f"block {block} is retired, it has no mode")
    return _INT_TO_MODE[int(mode)]


def _age_hours(ssd: Ssd, lpn: int, now_us: float) -> float:
    write_time = ssd._write_time_hours[lpn]
    if np.isnan(write_time):
        return float(ssd._initial_age_hours[lpn])
    return max(us_to_hours(now_us) - float(write_time), 0.0)


def _current_pe(ssd: Ssd, block: int | None) -> float:
    if block is None:
        return ssd.config.initial_pe_cycles
    return ssd.config.initial_pe_cycles + float(ssd._block_erase[block])
