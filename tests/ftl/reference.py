"""Scalar reference implementations of the array-native GC kernels.

These are the per-block victim scan, the per-page relocation loop and
the per-candidate cold-block pick the FTL used before garbage
collection worked on whole arrays, kept as differential oracles: the
production code must pick the same victim (or None), leave byte-equal
mapping arrays and write pointers, return the same ``service`` float
and raise the same :class:`~repro.errors.FtlError`.

They drive an :class:`~repro.ftl.ssd.Ssd` through its private block
arrays and its scalar ``_invalidate`` / ``_allocate_page`` primitives,
exactly as the old methods did.
"""

from __future__ import annotations

import numpy as np

from repro.core.level_adjust import CellMode
from repro.errors import FtlError
from repro.ftl.ssd import _BAD, _FREE, _MODE_TO_INT, Ssd


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
