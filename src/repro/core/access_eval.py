"""AccessEval: the FTL-level policy applying LevelAdjust on demand
(paper §5).

Three components:

* the **HLO identifier** (:mod:`repro.core.hlo`) flags data whose access
  pattern implies high LDPC overhead,
* the **ReducedCell pool** records which logical pages currently live in
  reduced-state cells and bounds their total footprint; when full, the
  least-recently-accessed entry is demoted back to normal state,
* the **AccessEval controller** (this module's :class:`AccessEval`)
  turns read observations into migration decisions the FTL executes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from repro.core.hlo import HloIdentifier
from repro.errors import ConfigurationError


class ReducedCellPool:
    """LRU-ordered set of logical pages stored in reduced-state cells.

    The pool size bounds the capacity sacrificed to LevelAdjust: the
    paper caps it at 64 GB of a 256 GB system, turning the raw 25 %
    density loss into ~6 % of total capacity.
    """

    def __init__(self, max_pages: int):
        if max_pages < 0:
            raise ConfigurationError(f"negative pool size: {max_pages}")
        self.max_pages = max_pages
        self._pages: OrderedDict[int, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._pages

    def touch(self, lpn: int) -> None:
        """Refresh a member page's recency (no-op for non-members)."""
        if lpn in self._pages:
            self._pages.move_to_end(lpn)

    def admit(self, lpn: int) -> int | None:
        """Add a page, evicting the LRU member if the pool is full.

        Returns the evicted page's LPN, or None if nothing was evicted.
        Admitting a current member only refreshes its recency.
        """
        if self.max_pages == 0:
            return None
        if lpn in self._pages:
            self._pages.move_to_end(lpn)
            return None
        evicted = None
        if len(self._pages) >= self.max_pages:
            evicted, _ = self._pages.popitem(last=False)
        self._pages[lpn] = None
        return evicted

    def remove(self, lpn: int) -> bool:
        """Drop a page from the pool (e.g. it was overwritten/trimmed)."""
        if lpn in self._pages:
            del self._pages[lpn]
            return True
        return False

    def members(self) -> list[int]:
        """Pool contents in LRU-to-MRU order."""
        return list(self._pages)

    def fill_fraction(self) -> float:
        """Occupancy of the pool in [0, 1]."""
        if self.max_pages == 0:
            return 0.0
        return len(self._pages) / self.max_pages


class AccessDecision(NamedTuple):
    """Outcome of one read observation.

    Attributes
    ----------
    is_hlo:
        The read's access pattern marks the page as high-LDPC-overhead.
    promote:
        The FTL should migrate the page into reduced-state cells.
    demote_lpn:
        A page the FTL must migrate back to normal-state cells to make
        room (the pool's LRU victim), or None.
    """

    is_hlo: bool
    promote: bool
    demote_lpn: int | None = None


class AccessEval:
    """The AccessEval controller (paper Fig. 2, right half).

    Parameters
    ----------
    pool_pages:
        Maximum number of logical pages stored in reduced state.
    identifier:
        HLO identifier; a default (N = M = 2) one is built when omitted.
    """

    def __init__(self, pool_pages: int, identifier: HloIdentifier | None = None):
        self.pool = ReducedCellPool(pool_pages)
        self.identifier = identifier or HloIdentifier()
        self.promotions = 0
        self.demotions = 0

    def on_read(self, lpn: int, extra_levels: int) -> AccessDecision:
        """Classify a read and decide on migrations.

        HLO pages not yet in the pool are promoted (possibly demoting
        the pool's LRU victim); pool members just refresh their recency.
        """
        is_hlo = self.identifier.observe_read(lpn, extra_levels)
        pool = self.pool
        if lpn in pool:
            pool.touch(lpn)
            return AccessDecision(is_hlo, False)
        if not is_hlo or pool.max_pages == 0:
            return AccessDecision(is_hlo, False)
        evicted = pool.admit(lpn)
        self.promotions += 1
        if evicted is not None:
            self.demotions += 1
        return AccessDecision(True, True, evicted)

    def on_overwrite(self, lpn: int) -> None:
        """Forget a page that was rewritten (new data, fresh pattern)."""
        self.pool.remove(lpn)

    def reduced_fraction(self, total_pages: int) -> float:
        """Fraction of the logical space currently in reduced state."""
        if total_pages <= 0:
            raise ConfigurationError(f"non-positive page count: {total_pages}")
        return len(self.pool) / total_pages
