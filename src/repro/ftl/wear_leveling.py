"""Wear leveling for the SSD substrate.

Greedy garbage collection alone lets erase counts diverge: blocks
holding cold data are never reclaimed while hot blocks cycle
constantly, and the drive dies when its hottest blocks do.  The classic
mitigation (implemented by FlashSim and every shipping FTL) is *static*
wear leveling: when the erase-count spread exceeds a threshold, migrate
a cold (fully-valid, rarely-erased) block's contents onto a hot block
so the cold block joins the rotation.

:class:`WearLeveler` is a policy object the :class:`~repro.ftl.ssd.Ssd`
consults after each garbage collection; it is deliberately stateless
beyond its thresholds so it can be swapped or disabled per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WearLeveler:
    """Static wear-leveling policy.

    Parameters
    ----------
    spread_threshold:
        Trigger when ``max(erase) - min(erase)`` among *used* blocks
        reaches this value.
    check_interval:
        Only evaluate the trigger every this-many garbage collections
        (the scan is linear in the block count).
    """

    spread_threshold: int = 8
    check_interval: int = 4

    def __post_init__(self) -> None:
        if self.spread_threshold < 1:
            raise ConfigurationError("spread threshold must be >= 1")
        if self.check_interval < 1:
            raise ConfigurationError("check interval must be >= 1")

    def should_check(self, gc_runs: int) -> bool:
        """True when this GC run should evaluate the wear spread."""
        return gc_runs % self.check_interval == 0

    def pick_cold_block(
        self,
        erase_counts: np.ndarray,
        valid_counts: np.ndarray,
        usable_counts: np.ndarray,
        excluded: set[int],
    ) -> int | None:
        """The coldest candidate block to rotate, or None.

        A candidate is a fully-written block that is not excluded (free
        or currently active) whose erase count trails the maximum by at
        least the spread threshold.  Among candidates the least-erased,
        fullest block is chosen — moving it frees the most-stuck data.
        """
        candidate = valid_counts >= usable_counts  # else normal GC gets to it
        candidate &= erase_counts.max() - erase_counts >= self.spread_threshold
        candidate[list(excluded)] = False
        blocks = np.flatnonzero(candidate)
        if blocks.size == 0:
            return None
        # lexsort is stable and its last key is the primary one: erase
        # ascending, then valid descending, then block index ascending.
        order = np.lexsort((-valid_counts[blocks], erase_counts[blocks]))
        return int(blocks[order[0]])


def erase_spread(erase_counts: np.ndarray) -> int:
    """Max minus min per-block erase count (the wear-leveling metric)."""
    counts = np.asarray(erase_counts)
    if counts.size == 0:
        raise ConfigurationError("no blocks")
    return int(counts.max() - counts.min())
