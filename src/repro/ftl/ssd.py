"""The page-mapped SSD mechanism.

This is the FlashSim-equivalent substrate: logical-to-physical page
mapping, dual-mode (normal / reduced) block allocation, greedy garbage
collection over the over-provisioned pool, and wear/age bookkeeping.

Policy lives elsewhere: the storage systems in
:mod:`repro.baselines.systems` decide *which mode* a page is written in
and *how long* a read takes; the :class:`Ssd` provides mechanism and
charges flash work (program / erase / relocation) in microseconds.

Mode and capacity: a reduced-mode block stores only 75 % as many pages
(ReduceCode), so converting blocks to reduced mode shrinks the physical
page supply and — exactly as the paper argues — eats into the
over-provisioning, raising garbage-collection pressure.

Fault handling: with a :class:`~repro.faults.FaultInjector` attached,
factory-bad blocks are mapped out at init, failed programs are
rewritten elsewhere and the failing block retired against the spare
budget (likewise failed erases), read scrub refreshes pages whose BER
crossed the sensing trigger, and spare-pool exhaustion drops the drive
into read-only degraded mode instead of crashing — see docs/FAULTS.md.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.core.level_adjust import CellMode
from repro.errors import ConfigurationError, FtlError, OutOfSpaceError
from repro.faults import BadBlockTable, FaultInjector
from repro.ftl.config import SsdConfig
from repro.ftl.stats import SsdStats
from repro.ftl.wear_leveling import WearLeveler
from repro.units import us_to_hours

_FREE = -1
#: Block-mode sentinel for retired (factory- or grown-bad) blocks: they
#: hold no pages, are never allocated, picked as GC victims or rotated
#: by wear leveling, and contribute nothing to the page supply.
_BAD = -2

#: Block-mode encoding in the metadata arrays.
_MODE_TO_INT = {CellMode.NORMAL: 0, CellMode.REDUCED: 1, CellMode.SLC: 2}
_INT_TO_MODE = {value: mode for mode, value in _MODE_TO_INT.items()}


class PageReadInfo(NamedTuple):
    """Everything a read-latency policy needs to know about a page."""

    lpn: int
    mode: CellMode
    age_hours: float
    pe_cycles: float
    #: Physical block backing the page; -1 when unmapped (no medium).
    block: int = -1


class Ssd:
    """Page-mapped SSD with dual-mode blocks and greedy GC.

    Parameters
    ----------
    config:
        Geometry, timings and policy thresholds.
    prefill_pages:
        Number of logical pages considered written before the
        simulation starts (the workload's footprint).  They are laid
        out sequentially in normal-mode blocks.
    reduced_prefix_pages:
        The first this-many prefilled pages start in *reduced* mode
        (used by the LevelAdjust-only system, whose whole working set
        lives in reduced-state cells).
    initial_age_hours:
        Per-prefilled-page data age at simulation start.  Either an
        array of ``prefill_pages`` entries or a scalar applied to all;
        models the steady-state retention-age mix of a long-running
        drive.
    wear_leveler:
        Optional static wear-leveling policy evaluated after garbage
        collections (None disables wear leveling).
    fault_injector:
        Optional seeded :class:`~repro.faults.FaultInjector`.  Ignored
        unless its config is enabled; when active, manufacture-bad
        blocks are mapped out before prefill and program/erase faults
        are sampled during operation.
    recovery:
        Optional :class:`~repro.ftl.recovery.RecoveryManager` modelling
        the durable medium (per-page OOB metadata, mapping journal).
        Every mutation records itself, so a sudden power-off at any
        virtual-time point can be remounted — see docs/RECOVERY.md.
        None (the default) changes nothing.
    """

    def __init__(
        self,
        config: SsdConfig,
        prefill_pages: int = 0,
        reduced_prefix_pages: int = 0,
        initial_age_hours: np.ndarray | float = 0.0,
        wear_leveler: WearLeveler | None = None,
        fault_injector: FaultInjector | None = None,
        recovery=None,
    ):
        if not 0 <= prefill_pages <= config.logical_pages:
            raise ConfigurationError(
                f"prefill_pages {prefill_pages} outside [0, {config.logical_pages}]"
            )
        if not 0 <= reduced_prefix_pages <= prefill_pages:
            raise ConfigurationError(
                f"reduced_prefix_pages {reduced_prefix_pages} outside "
                f"[0, {prefill_pages}]"
            )
        self.config = config
        self.stats = SsdStats()
        # Run observers (repro.sim.des.observers), attached by the
        # engine for the duration of a run: GC runs, scrub refreshes,
        # erases, retirements and degradation report themselves.
        # Host-path entry points tick the virtual clock; internal events
        # stamp themselves at the last ticked time.
        self.observers = ()
        self._window_now_us = 0.0
        n_logical = config.logical_pages
        n_physical = config.physical_pages
        # SsdConfig is frozen, so the LPN bound and the per-mode block
        # sizes are fixed for the drive's lifetime.
        self._logical_pages = n_logical
        self._usable_by_mode = {
            CellMode.NORMAL: config.pages_per_block,
            CellMode.REDUCED: config.reduced_pages_per_block,
            CellMode.SLC: config.slc_pages_per_block,
        }
        # Usable pages per block-mode code, so that
        # ``self._usable_by_code[self._block_mode]`` sizes every block at
        # once: the mode codes index the first three entries, and the
        # negative sentinels wrap to the last two (_BAD = -2 holds no
        # pages, a _FREE = -1 block is full size).
        self._usable_by_code = np.array(
            [self._usable_by_mode[_INT_TO_MODE[code]] for code in range(3)]
            + [0, config.pages_per_block],
            dtype=np.int32,
        )
        self._l2p = np.full(n_logical, _FREE, dtype=np.int64)
        self._p2l = np.full(n_physical, _FREE, dtype=np.int64)
        self._page_valid = np.zeros(n_physical, dtype=bool)
        self._block_mode = np.full(config.n_blocks, _FREE, dtype=np.int8)
        self._block_write_ptr = np.zeros(config.n_blocks, dtype=np.int32)
        self._block_valid = np.zeros(config.n_blocks, dtype=np.int32)
        self._block_erase = np.zeros(config.n_blocks, dtype=np.int32)
        self._free_blocks: deque[int] = deque(range(config.n_blocks))
        # Active write frontiers: one per (mode, slot).  The "host" slot
        # serves host writes and GC relocation; the "cold" slot parks
        # wear-leveling relocations in worn blocks so cold data stops
        # circulating through the hot rotation.
        self._active: dict[tuple[CellMode, str], int | None] = {
            (mode, slot): None for mode in CellMode for slot in ("host", "cold")
        }
        self._in_gc = False
        self.wear_leveler = wear_leveler
        # Age bookkeeping (hours): write time during the sim, or the
        # sampled initial age for prefilled pages.
        self._write_time_hours = np.full(n_logical, np.nan)
        self._initial_age_hours = np.zeros(n_logical)
        ages = np.broadcast_to(
            np.asarray(initial_age_hours, dtype=float), (prefill_pages,)
        )
        if np.any(ages < 0):
            raise ConfigurationError("initial ages must be non-negative")
        self._initial_age_hours[:prefill_pages] = ages
        # Fault handling: map out factory-bad blocks before any page is
        # placed, so prefill and the free pool never see them.
        if fault_injector is not None and not fault_injector.config.enabled:
            fault_injector = None
        self.fault_injector = fault_injector
        self.recovery = recovery
        self.read_only = False
        self.bad_block_table: BadBlockTable | None = None
        if fault_injector is not None:
            manufacture_bad = fault_injector.sample_manufacture_bad(config.n_blocks)
            self.bad_block_table = BadBlockTable(
                n_blocks=config.n_blocks,
                spare_blocks=fault_injector.spare_blocks(config.n_blocks),
                manufacture_bad=manufacture_bad,
            )
            for block in manufacture_bad:
                self._block_mode[block] = _BAD
                self._free_blocks.remove(block)
        self._prefill(prefill_pages, reduced_prefix_pages)
        if fault_injector is not None:
            if self.free_block_count() <= config.gc_free_block_threshold:
                raise ConfigurationError(
                    f"{len(self.bad_block_table.manufacture_bad)} manufacture-bad "
                    f"blocks leave only {self.free_block_count()} free blocks "
                    f"after prefill (GC needs > {config.gc_free_block_threshold}) "
                    "— lower the bad-block rate or add over-provisioning"
                )
            self.stats.manufacture_bad_blocks = len(
                self.bad_block_table.manufacture_bad
            )

    # --- capacity views ---------------------------------------------------------

    def free_block_count(self) -> int:
        """Blocks currently in the free pool."""
        return len(self._free_blocks)

    def block_usable_pages(self, block: int) -> int:
        """Pages a block can hold in its current mode (full size if
        free, zero if retired)."""
        if not 0 <= block < self.config.n_blocks:
            raise ConfigurationError(f"block {block} outside [0, {self.config.n_blocks})")
        return int(self._usable_by_code[self._block_mode[block]])

    def mode_of(self, lpn: int) -> CellMode | None:
        """Cell mode the logical page is currently stored in."""
        self._check_lpn(lpn)
        ppn = self._l2p[lpn]
        if ppn == _FREE:
            return None
        return self._mode_of_block(int(ppn) // self.config.pages_per_block)

    def reduced_logical_pages(self) -> int:
        """Logical pages currently stored in reduced-mode blocks."""
        return self.pages_in_mode(CellMode.REDUCED)

    def pages_in_mode(self, mode: CellMode) -> int:
        """Valid logical pages currently stored in ``mode`` blocks."""
        in_mode = self._block_mode == _MODE_TO_INT[mode]
        return int(self._block_valid[in_mode].sum())

    def physical_page_supply(self) -> int:
        """Usable pages across all blocks given their current modes."""
        return int(self._usable_by_code[self._block_mode].sum())

    def channel_of(self, lpn: int, n_channels: int) -> int:
        """Channel a read/program of this logical page lands on.

        Blocks stripe round-robin across channels (a block lives on one
        die, a die hangs off one channel), so the routing key is the
        page's *physical* block — two logical neighbours written at
        different times can sit on different channels, and a page's
        channel changes when GC or migration relocates it.  Unmapped
        pages have no physical home yet; they route by LPN so the
        dispatcher still spreads them.
        """
        self._check_lpn(lpn)
        if n_channels < 1:
            raise ConfigurationError(f"need at least one channel, got {n_channels}")
        ppn = self._l2p.item(lpn)
        if ppn == _FREE:
            return lpn % n_channels
        return (ppn // self.config.pages_per_block) % n_channels

    def max_pe_cycles(self) -> float:
        """Highest per-block P/E count (initial wear + simulated erases)."""
        return self.config.initial_pe_cycles + float(self._block_erase.max())

    def publish_metrics(self, registry) -> None:
        """Publish counters and wear/capacity gauges into ``registry``
        (a :class:`repro.obs.metrics.MetricsRegistry`)."""
        self.stats.publish(registry)
        registry.gauge("ftl.wear.max_pe_cycles").set(self.max_pe_cycles())
        registry.gauge("ftl.capacity.reduced_logical_pages").set(
            self.reduced_logical_pages()
        )
        if self.fault_injector is not None:
            registry.gauge("ftl.bbt.spare_remaining").set(
                self.bad_block_table.spare_remaining
            )
            registry.gauge("ftl.degraded.read_only").set(
                1.0 if self.read_only else 0.0
            )

    # --- observed events --------------------------------------------------------

    def window_tick(self, now_us: float) -> None:
        """Advance the observers' virtual clock.

        Host-path entry points (reads, writes, migrations, refreshes)
        tick it with their request time; internal events that carry no
        timestamp of their own — GC runs, scrubs, block retirements,
        entering degraded mode — stamp themselves at the last ticked
        time.  A no-op without attached observers.
        """
        if self.observers and now_us > self._window_now_us:
            self._window_now_us = now_us

    def attach(self, observers: tuple) -> tuple:
        """Route FTL events to ``observers``; returns the previous ones.

        The observers' clock restarts, so a run's events are never
        stamped at an earlier run's last host-path time.
        """
        previous, self.observers = self.observers, observers
        self._window_now_us = 0.0
        return previous

    # --- host operations ------------------------------------------------------------

    def read_info(self, lpn: int, now_us: float) -> PageReadInfo:
        """Metadata for a host read (mode, data age, wear).

        Reading an unmapped page is legal (hosts read unwritten LBAs);
        it reports normal mode and zero age.  Every host read passes
        here, so it reads each array once, as a Python scalar, in place
        of :meth:`_check_lpn`, :meth:`window_tick`, :meth:`_age_hours`
        and :meth:`_current_pe`.
        """
        if not 0 <= lpn < self._logical_pages:
            raise ConfigurationError(f"LPN {lpn} outside [0, {self._logical_pages})")
        if self.observers and now_us > self._window_now_us:
            self._window_now_us = now_us
        stats = self.stats
        stats.host_read_pages += 1
        config = self.config
        ppn = self._l2p.item(lpn)
        if ppn == _FREE:
            return PageReadInfo(lpn, CellMode.NORMAL, 0.0, config.initial_pe_cycles)
        block = ppn // config.pages_per_block
        mode = _INT_TO_MODE.get(self._block_mode.item(block))
        if mode is None:
            self._mode_of_block(block)  # raises FtlError: free or retired
        write_time = self._write_time_hours.item(lpn)
        if write_time != write_time:  # NaN: not rewritten since prefill
            age = self._initial_age_hours.item(lpn)
        else:
            age = max(us_to_hours(now_us) - write_time, 0.0)
        stats.flash_read_pages += 1
        pe_cycles = config.initial_pe_cycles + float(self._block_erase[block])
        return PageReadInfo(lpn, mode, age, pe_cycles, block)

    def host_write(self, lpn: int, mode: CellMode, now_us: float) -> tuple[float, float]:
        """Write a logical page in the given mode.

        Returns ``(foreground_us, background_us)``: the program itself
        is foreground work, garbage collection it triggered is
        background work the controller overlaps with idle time.

        In read-only degraded mode (spare pool exhausted) the write is
        rejected — counted, zero cost — instead of crashing the run.
        """
        self._check_lpn(lpn)
        self.window_tick(now_us)
        if self.recovery is not None:
            self.recovery.begin_op(now_us)
        if self.read_only:
            self.stats.rejected_writes += 1
            return 0.0, 0.0
        self.stats.host_write_pages += 1
        return self._write_page(lpn, mode, now_us, kind="host")

    def trim(self, lpn: int) -> bool:
        """Host TRIM/discard: drop a logical page's mapping.

        The freed physical page becomes garbage for GC to reclaim.
        Returns True if the page was mapped.
        """
        self._check_lpn(lpn)
        ppn = self._l2p[lpn]
        if ppn == _FREE:
            return False
        self._invalidate(int(ppn))
        self._l2p[lpn] = _FREE
        self._write_time_hours[lpn] = np.nan
        self._initial_age_hours[lpn] = 0.0
        self.stats.trimmed_pages += 1
        if self.recovery is not None:
            self.recovery.record_trim(lpn)
        return True

    def migrate(self, lpn: int, target_mode: CellMode, now_us: float) -> tuple[float, float]:
        """Move a page between modes (AccessEval promotion/demotion).

        Returns ``(foreground_us, background_us)``: one flash read plus
        one program in the foreground, any triggered GC in the
        background.  The data age is preserved — migration rewrites the
        same data.
        """
        self._check_lpn(lpn)
        self.window_tick(now_us)
        if self.recovery is not None:
            self.recovery.begin_op(now_us)
        if self._l2p[lpn] == _FREE:
            raise FtlError(f"cannot migrate unmapped page {lpn}")
        if self.read_only:
            return 0.0, 0.0
        current_mode = self.mode_of(lpn)
        if current_mode == target_mode:
            return 0.0, 0.0
        age_before = self._age_hours(lpn, now_us)
        foreground = self.config.timing.read_us
        self.stats.flash_read_pages += 1
        program, background = self._write_page(lpn, target_mode, now_us, kind="migration")
        foreground += program
        # Restore the age: migrated data is old data in a new location.
        self._write_time_hours[lpn] = us_to_hours(now_us) - age_before
        if self.recovery is not None:
            self.recovery.patch_write_time(lpn, float(self._write_time_hours[lpn]))
        return foreground, background

    def refresh(self, lpn: int, now_us: float) -> float:
        """Rewrite a page in its current mode to reset its data age.

        The read-scrub primitive: one flash read plus one program (same
        mechanism as :meth:`migrate`, without the mode change), after
        which the page's retention clock restarts at ``now_us``.
        Returns the flash work in microseconds; zero for unmapped pages
        and in read-only mode (skipped scrubs are counted).
        """
        self._check_lpn(lpn)
        self.window_tick(now_us)
        if self.recovery is not None:
            self.recovery.begin_op(now_us)
        if self._l2p[lpn] == _FREE:
            return 0.0
        if self.read_only:
            self.stats.scrub_skipped_pages += 1
            return 0.0
        mode = self.mode_of(lpn)
        service = self.config.timing.read_us
        self.stats.flash_read_pages += 1
        program, gc = self._write_page(lpn, mode, now_us, kind="scrub")
        self.stats.scrub_refreshed_pages += 1
        for observer in self.observers:
            observer.scrub_refresh(self._window_now_us)
        return service + program + gc

    def scrub_if_needed(self, lpn: int, required_levels: int, now_us: float) -> float:
        """Refresh the page if its BER crossed the scrub trigger.

        Called on the read path with the sensing-level requirement the
        tracking policy just computed; refreshes (background work) when
        the requirement reaches the fault config's trigger and the data
        is old enough for a rewrite to actually lower its BER.  Returns
        the background flash work, zero when no scrub ran.
        """
        injector = self.fault_injector
        if injector is None or not injector.config.scrub_enabled:
            return 0.0
        if required_levels < injector.config.scrub_trigger_levels:
            return 0.0
        if self._age_hours(lpn, now_us) < injector.config.scrub_min_age_hours:
            return 0.0
        return self.refresh(lpn, now_us)

    # --- internals ------------------------------------------------------------------

    def _prefill(self, prefill_pages: int, reduced_prefix_pages: int) -> None:
        for lpn in range(prefill_pages):
            mode = CellMode.REDUCED if lpn < reduced_prefix_pages else CellMode.NORMAL
            block, offset = self._allocate_page(mode)
            ppn = block * self.config.pages_per_block + offset
            self._l2p[lpn] = ppn
            self._p2l[ppn] = lpn
            self._page_valid[ppn] = True
            self._block_valid[block] += 1
            if self.recovery is not None:
                self.recovery.record_prefill(
                    lpn,
                    ppn,
                    _MODE_TO_INT[mode],
                    float(self._initial_age_hours[lpn]),
                )
        # Prefill is history, not simulated work: reset the counters the
        # allocation path may have touched.
        self.stats = SsdStats()
        if self.recovery is not None:
            # Mount checkpoint: without it a crash before the first
            # flash program/erase would leave replay_at with no base
            # and force a full-medium scan on remount.
            self.recovery.take_checkpoint(0.0)

    def _write_page(
        self, lpn: int, mode: CellMode, now_us: float, kind: str
    ) -> tuple[float, float]:
        service = 0.0
        # Allocate before invalidating: an out-of-space failure must not
        # lose the page's current copy.
        block, offset, gc_service = self._allocate_page_with_gc(mode)
        injector = self.fault_injector
        if injector is not None:
            device_age = us_to_hours(now_us)
            while injector.program_fails(self._current_pe(block), device_age):
                # Program-status fail: the attempt is paid for, the
                # failing block retired (rewrite-and-retire), and the
                # write moves to a fresh block.
                self.stats.program_fail_events += 1
                service += self.config.timing.program_us
                service += self._retire_block(block)
                if self.read_only:
                    # No spare remained: the drive just degraded.  The
                    # write is dropped; the old copy stays valid.
                    self.stats.rejected_writes += 1
                    return service, gc_service
                block, offset, gc_extra = self._allocate_page_with_gc(mode)
                gc_service += gc_extra
        # Re-read the old mapping after allocation — GC may have
        # relocated the old copy while making room.
        old_ppn = self._l2p[lpn]
        if old_ppn != _FREE:
            self._invalidate(int(old_ppn))
        ppn = block * self.config.pages_per_block + offset
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self._page_valid[ppn] = True
        self._block_valid[block] += 1
        self._write_time_hours[lpn] = us_to_hours(now_us)
        if self.recovery is not None:
            self.recovery.record_program(
                lpn,
                ppn,
                _MODE_TO_INT[mode],
                kind,
                write_time_hours=us_to_hours(now_us),
                initial_age_hours=float(self._initial_age_hours[lpn]),
            )
        service += self.config.timing.program_us
        if kind == "host":
            self.stats.flash_program_pages += 1
        elif kind == "migration":
            self.stats.migration_program_pages += 1
        elif kind == "scrub":
            self.stats.scrub_program_pages += 1
        else:
            self.stats.gc_program_pages += 1
        return service, gc_service

    def _invalidate(self, ppn: int) -> None:
        if not self._page_valid[ppn]:
            raise FtlError(f"double invalidation of physical page {ppn}")
        self._page_valid[ppn] = False
        self._p2l[ppn] = _FREE
        block = ppn // self.config.pages_per_block
        self._block_valid[block] -= 1
        if self._block_valid[block] < 0:
            raise FtlError(f"negative valid count in block {block}")

    def _allocate_page_with_gc(self, mode: CellMode) -> tuple[int, int, float]:
        gc_service = 0.0
        if (
            not self._in_gc
            and self.free_block_count() <= self.config.gc_free_block_threshold
        ):
            gc_service = self._garbage_collect()
        block, offset = self._allocate_page(mode)
        return block, offset, gc_service

    def _allocate_page(self, mode: CellMode, slot: str = "host") -> tuple[int, int]:
        active = self._open_frontier(mode, slot)
        offset = int(self._block_write_ptr[active])
        self._block_write_ptr[active] += 1
        return active, offset

    def _open_frontier(self, mode: CellMode, slot: str) -> int:
        """The ``(mode, slot)`` frontier block, replaced by a fresh free
        block when it is missing or full."""
        active = self._active[(mode, slot)]
        if active is None or self._block_write_ptr[active] >= self._usable_by_mode[mode]:
            active = self._take_free_block(mode, slot)
        return active

    def _take_free_block(self, mode: CellMode, slot: str = "host") -> int:
        if not self._free_blocks:
            raise OutOfSpaceError(
                f"free-block pool exhausted allocating a {mode.name.lower()}-mode "
                f"block for the {slot!r} frontier — over-provisioning consumed, "
                "too much space converted to reduced mode or lost to bad blocks "
                f"({self._space_report()})"
            )
        # Dynamic wear leveling at allocation time: host data goes to the
        # least-worn free block, parked cold data to the most-worn one.
        if slot == "cold":
            block = max(self._free_blocks, key=lambda b: self._block_erase[b])
        else:
            block = min(self._free_blocks, key=lambda b: self._block_erase[b])
        self._free_blocks.remove(block)
        self._block_mode[block] = _MODE_TO_INT[mode]
        self._block_write_ptr[block] = 0
        self._active[(mode, slot)] = block
        return block

    def _garbage_collect(self) -> float:
        """Greedy GC: reclaim blocks until the free pool recovers.

        Returns the flash work spent (reads + programs + erases).
        """
        service = 0.0
        self._in_gc = True
        try:
            guard = 0
            while self.free_block_count() <= self.config.gc_free_block_threshold:
                victim = self._pick_victim()
                if victim is None:
                    raise OutOfSpaceError(
                        "garbage collection found no reclaimable block — "
                        f"GC victim pool exhausted ({self._space_report()})"
                    )
                service += self._reclaim(victim)
                guard += 1
                if guard > self.config.n_blocks:
                    raise FtlError("GC loop failed to make progress")
            self.stats.gc_runs += 1
            for observer in self.observers:
                observer.gc_run(self._window_now_us)
            service += self._maybe_wear_level()
        finally:
            self._in_gc = False
        return service

    def _maybe_wear_level(self) -> float:
        """Rotate one cold block if the wear spread demands it."""
        leveler = self.wear_leveler
        if leveler is None or not leveler.should_check(self.stats.gc_runs):
            return 0.0
        excluded = {b for b in self._active.values() if b is not None}
        excluded.update(self._free_blocks)
        excluded.update(np.flatnonzero(self._block_mode == _BAD).tolist())
        cold = leveler.pick_cold_block(
            self._block_erase,
            self._block_valid,
            self._usable_by_code[self._block_mode],
            excluded,
        )
        if cold is None:
            return 0.0
        moved = int(self._block_valid[cold])
        service = self._reclaim(cold, slot="cold")
        self.stats.wear_level_moves += moved
        return service

    def _pick_victim(self) -> int | None:
        """The in-use, fully written, not fully valid, non-active block
        with the fewest valid pages; the lowest block index wins a tie.

        A pure function of the block arrays and the active frontiers —
        no candidate set is maintained — so a remount that writes the
        arrays directly (:func:`repro.ftl.recovery.rebuild_ssd`) needs
        no extra bookkeeping.
        """
        usable = self._usable_by_code[self._block_mode]
        valid = self._block_valid
        candidate = (
            (self._block_mode >= 0)
            & (self._block_write_ptr >= usable)
            & (valid < usable)
        )
        for block in self._active.values():
            if block is not None:
                candidate[block] = False
        blocks = np.flatnonzero(candidate)
        if blocks.size == 0:
            return None
        # argmin returns the first minimum: the lowest-index block.
        return int(blocks[np.argmin(valid[blocks])])

    def _reclaim(self, victim: int, slot: str = "host") -> float:
        service = self._relocate_valid_pages(victim, slot)
        injector = self.fault_injector
        if injector is not None and injector.erase_fails(self._current_pe(victim)):
            # Erase-status fail: the attempt is paid for and the block
            # retired instead of rejoining the free pool (its wear
            # count is not advanced — the erase never completed).
            self.stats.erase_fail_events += 1
            service += self.config.timing.erase_us
            self._block_write_ptr[victim] = 0
            self._block_mode[victim] = _BAD
            if self.recovery is not None:
                self.recovery.record_retire(victim)
            bbt = self.bad_block_table
            if bbt.exhausted:
                self.stats.retirements_skipped += 1
                self._enter_read_only()
            else:
                bbt.retire(victim)
                self.stats.blocks_retired += 1
                for observer in self.observers:
                    observer.block_retired(
                        victim, "erase_fail", self._window_now_us
                    )
            return service
        self._block_mode[victim] = _FREE
        self._block_write_ptr[victim] = 0
        self._free_blocks.append(victim)
        self._block_erase[victim] += 1
        self.stats.erase_blocks += 1
        for observer in self.observers:
            observer.block_erased(victim, self._current_pe(victim))
        service += self.config.timing.erase_us
        if self.recovery is not None:
            self.recovery.record_erase(victim)
        return service

    def _relocate_valid_pages(self, victim: int, slot: str = "host") -> float:
        """Copy every valid page off ``victim``; returns the flash work.

        Pages move in offset order into the ``(mode, slot)`` frontier,
        one destination-block slice at a time.  A destination is opened
        before the pages it takes are invalidated, so running out of
        space leaves every unmoved page mapped.  Relocation copies old
        data: the pages keep their age bookkeeping.
        """
        mode = self._mode_of_block(victim)
        code = _MODE_TO_INT[mode]
        usable = self._usable_by_mode[mode]
        timing = self.config.timing
        ppb = self.config.pages_per_block
        base = victim * ppb
        sources = base + np.flatnonzero(
            self._page_valid[base : base + int(self._block_write_ptr[victim])]
        )
        if sources.size > self._block_valid[victim]:
            raise FtlError(f"negative valid count in block {victim}")
        lpns = self._p2l[sources]
        service = 0.0
        done = 0
        while done < sources.size:
            block = self._open_frontier(mode, slot)
            start = int(self._block_write_ptr[block])
            n = min(usable - start, sources.size - done)
            moved = slice(done, done + n)
            targets = slice(block * ppb + start, block * ppb + start + n)
            self._page_valid[sources[moved]] = False
            self._p2l[sources[moved]] = _FREE
            self._block_valid[victim] -= n
            self._l2p[lpns[moved]] = np.arange(targets.start, targets.stop)
            self._p2l[targets] = lpns[moved]
            self._page_valid[targets] = True
            self._block_valid[block] += n
            self._block_write_ptr[block] = start + n
            if self.recovery is not None:
                for lpn, ppn in zip(lpns[moved].tolist(), range(targets.start, targets.stop)):
                    self.recovery.record_program(
                        lpn,
                        ppn,
                        code,
                        "gc",
                        write_time_hours=float(self._write_time_hours[lpn]),
                        initial_age_hours=float(self._initial_age_hours[lpn]),
                    )
            for _ in range(n):
                service += timing.read_us
                service += timing.program_us
            self.stats.flash_read_pages += n
            self.stats.gc_program_pages += n
            done += n
        if self._block_valid[victim] != 0:
            raise FtlError(f"victim block {victim} still has valid pages")
        return service

    def _retire_block(self, victim: int) -> float:
        """Retire a block that failed a program status check.

        Valid pages are relocated, the block is marked bad and a spare
        consumed; with no spare remaining the drive enters read-only
        degraded mode instead (the block stays in service — nothing
        better exists to move its data to).  Returns the relocation
        flash work in microseconds.
        """
        bbt = self.bad_block_table
        if bbt.exhausted:
            self.stats.retirements_skipped += 1
            self._enter_read_only()
            return 0.0
        # Close any write frontier on the victim first, so relocation
        # cannot allocate pages back into the block being retired.
        for key, active in self._active.items():
            if active == victim:
                self._active[key] = None
        service = self._relocate_valid_pages(victim)
        self._block_mode[victim] = _BAD
        self._block_write_ptr[victim] = 0
        if self.recovery is not None:
            self.recovery.record_retire(victim)
        bbt.retire(victim)
        self.stats.blocks_retired += 1
        for observer in self.observers:
            observer.block_retired(victim, "program_fail", self._window_now_us)
        return service

    def _enter_read_only(self) -> None:
        """Degrade to read-only: writes, migrations and scrubs stop."""
        self.read_only = True
        for observer in self.observers:
            observer.read_only(self._window_now_us)

    # --- helpers ------------------------------------------------------------------------

    def _space_report(self) -> str:
        """Pool accounting embedded in OutOfSpaceError messages."""
        in_use = np.bincount(self._block_mode[self._block_mode >= 0], minlength=3)
        parts = [
            f"free={self.free_block_count()}",
            "in-use "
            + " ".join(
                f"{mode.name.lower()}={in_use[_MODE_TO_INT[mode]]}" for mode in CellMode
            ),
            f"gc_threshold={self.config.gc_free_block_threshold}",
        ]
        bbt = self.bad_block_table
        if bbt is not None:
            parts.append(
                f"bad-blocks manufacture={len(bbt.manufacture_bad)} "
                f"grown={len(bbt.grown)} spares_remaining={bbt.spare_remaining}"
            )
        if self.read_only:
            parts.append("read-only degraded mode")
        return "; ".join(parts)

    def _mode_of_block(self, block: int) -> CellMode:
        mode = self._block_mode[block]
        if mode == _FREE:
            raise FtlError(f"block {block} is free, it has no mode")
        if mode == _BAD:
            raise FtlError(f"block {block} is retired, it has no mode")
        return _INT_TO_MODE[int(mode)]

    def _age_hours(self, lpn: int, now_us: float) -> float:
        write_time = self._write_time_hours.item(lpn)
        if write_time != write_time:  # NaN: not rewritten since prefill
            return self._initial_age_hours.item(lpn)
        return max(us_to_hours(now_us) - write_time, 0.0)

    def _current_pe(self, block: int | None) -> float:
        if block is None:
            return self.config.initial_pe_cycles
        return self.config.initial_pe_cycles + float(self._block_erase[block])

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._logical_pages:
            raise ConfigurationError(f"LPN {lpn} outside [0, {self._logical_pages})")
