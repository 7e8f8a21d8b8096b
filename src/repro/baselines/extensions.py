"""Extension systems beyond the paper's four.

Three design alternatives a storage architect would weigh against
FlexLevel, built on the same substrate so the comparison is apples to
apples:

* **ldpc-in-ssd-progressive** — LDPC-in-SSD *without* per-region level
  tracking: every read starts at zero extra levels and retries upward
  until decoding succeeds (the progressive read-retry most shipping
  controllers implement).  Upper-bounds what the paper's idealized
  LDPC-in-SSD tracking is worth.
* **slc-cache** — the classic alternative to LevelAdjust: hot data goes
  into SLC-mode pages (two Vth levels, enormous margins, zero extra
  sensing) at a 50 % density cost instead of ReduceCode's 25 %.  Run
  with the same *capacity-loss budget* as FlexLevel, it can hold only
  half as many hot pages.
* **refresh** — retention-aware refresh (after Liu et al., FAST'12 and
  Pan et al., HPCA'12): pages whose reads demand extra sensing levels
  are rewritten in place, resetting their retention age.  No capacity
  cost at all — the price is paid in program/erase wear instead.
"""

from __future__ import annotations

from repro.baselines.systems import (
    FlexLevelSystem,
    LdpcInSsdSystem,
    StorageSystem,
    SystemConfig,
)
from repro.core.level_adjust import CellMode
from repro.errors import ConfigurationError


class LdpcInSsdProgressiveSystem(StorageSystem):
    """Progressive read-retry: no BER tracking, pay for the discovery.

    Each read attempt adds one sensing level; the failed attempts'
    transfers and decodes are wasted work on the critical path.
    """

    name = "ldpc-in-ssd-progressive"

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.NORMAL

    def _read_latency(self, required_levels: int, provisioned_levels: int) -> float:
        return self.latency.progressive_latency_us(required_levels)


class SlcCacheSystem(FlexLevelSystem):
    """AccessEval steering hot data into SLC pages instead of reduced ones.

    Inherits the HLO identification and pool machinery from FlexLevel;
    only the target mode and the pool sizing differ.  To hold the same
    capacity-loss budget as FlexLevel (pool x 25 % loss), the SLC pool
    is half the size (pool x 50 % loss).
    """

    name = "slc-cache"

    #: SLC density loss relative to ReduceCode's (0.50 vs 0.25).
    _LOSS_RATIO = 2

    def __init__(self, config: SystemConfig, **kwargs):
        super().__init__(config, **kwargs)
        self.access_eval.pool.max_pages //= self._LOSS_RATIO

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.SLC if lpn in self.access_eval.pool else CellMode.NORMAL

    def _after_read(
        self, lpn: int, mode: CellMode, required_levels: int, now_us: float
    ) -> float:
        decision = self.access_eval.on_read(lpn, required_levels)
        if decision.promote:
            foreground, gc = self.ssd.migrate(lpn, CellMode.SLC, now_us)
            self._pending_background_us += foreground + gc
            self.ssd.stats.promotions += 1
        if decision.demote_lpn is not None:
            foreground, gc = self.ssd.migrate(decision.demote_lpn, CellMode.NORMAL, now_us)
            self._pending_background_us += foreground + gc
            self.ssd.stats.demotions += 1
        return 0.0


class RefreshSystem(LdpcInSsdSystem):
    """Retention-aware refresh: rewrite pages that got expensive to read.

    When a read needs at least ``refresh_threshold`` extra sensing
    levels, the controller re-programs the page (in normal mode) off the
    critical path, resetting its retention age; the next read is fast.
    Capacity is untouched; endurance pays.
    """

    name = "refresh"

    def __init__(
        self, config: SystemConfig, refresh_threshold: int = 1, **kwargs
    ):
        if refresh_threshold < 1:
            raise ConfigurationError("refresh threshold must be >= 1")
        super().__init__(config, **kwargs)
        self.refresh_threshold = refresh_threshold
        self.refreshes = 0

    def _after_read(
        self, lpn: int, mode: CellMode, required_levels: int, now_us: float
    ) -> float:
        if required_levels >= self.refresh_threshold:
            # Rewriting the same data in place: one program (+ GC),
            # scheduled behind the response like other maintenance work.
            program, gc = self.ssd.host_write(lpn, CellMode.NORMAL, now_us)
            # host_write counts it as a host write; reclassify.
            self.ssd.stats.host_write_pages -= 1
            self.ssd.stats.flash_program_pages -= 1
            self.ssd.stats.migration_program_pages += 1
            self._pending_background_us += program + gc
            self.refreshes += 1
        return 0.0


EXTENSION_SYSTEMS = {
    cls.name: cls
    for cls in (LdpcInSsdProgressiveSystem, SlcCacheSystem, RefreshSystem)
}


def build_extension_system(name: str, config: SystemConfig, **kwargs) -> StorageSystem:
    """Instantiate an extension system by name."""
    if name not in EXTENSION_SYSTEMS:
        raise ConfigurationError(
            f"unknown extension system {name!r}; choose from {sorted(EXTENSION_SYSTEMS)}"
        )
    return EXTENSION_SYSTEMS[name](config, **kwargs)
