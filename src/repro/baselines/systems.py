"""The four storage systems of paper §6.2.

Each system owns an :class:`~repro.ftl.ssd.Ssd`, a write-back buffer, a
:class:`~repro.core.level_adjust.LevelAdjustPolicy` (the BER / sensing
oracle) and a :class:`~repro.ecc.ldpc.latency.ReadLatencyModel`; they
differ only in *policy*:

=================== ===========================  ==========================
system              read sensing                 write / placement
=================== ===========================  ==========================
baseline            fixed worst-case levels      all normal
ldpc-in-ssd         per-page required levels     all normal
leveladjust-only    per-page required levels     all reduced
flexlevel           per-page required levels     reduced iff in HLO pool,
                                                 with AccessEval migrations
=================== ===========================  ==========================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.access_eval import AccessEval
from repro.core.hlo import HloIdentifier, OverheadRule
from repro.core.hotness import MultiBloomHotness
from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.ecc.ldpc.latency import ReadLatencyModel
from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.ftl.config import SsdConfig
from repro.ftl.ssd import Ssd
from repro.ftl.write_buffer import WriteBuffer


@dataclass(frozen=True)
class SystemConfig:
    """Shared experiment configuration for all four systems.

    Parameters
    ----------
    ssd:
        SSD geometry and timings.
    footprint_pages:
        Logical pages the workload actively touches.  The *whole*
        logical space is prefilled (a full drive, so reduced-state
        capacity loss comes out of the over-provisioning exactly as the
        paper argues); the footprint is the hot subset.
    buffer_pages:
        Write-back buffer capacity in pages.
    max_age_hours:
        Cap of the initial data-age distribution (the paper's tables
        span up to one month).
    mean_age_hours:
        Mean of the exponential initial-age distribution.  A young-
        skewed steady state (most data rewritten recently, a long tail
        of cold old data) is what lets adaptive sensing beat worst-case
        provisioning.
    reduced_pool_fraction:
        FlexLevel: maximum fraction of the logical space stored in
        reduced-state cells (64 GB of 256 GB in the paper = 0.25).
    freq_levels, sensing_buckets:
        AccessEval's ``Lf`` / ``Lsensing`` granularity (paper: 2 and 2).
    age_seed:
        Seed for the initial-age sampling.
    """

    ssd: SsdConfig = field(default_factory=SsdConfig)
    footprint_pages: int = 0
    buffer_pages: int = 1024
    max_age_hours: float = 720.0
    mean_age_hours: float = 250.0
    reduced_pool_fraction: float = 0.25
    freq_levels: int = 2
    sensing_buckets: int = 2
    hotness_window: int = 4096
    age_seed: int = 7

    def __post_init__(self) -> None:
        if not 0 <= self.footprint_pages <= self.ssd.logical_pages:
            raise ConfigurationError(
                f"footprint {self.footprint_pages} outside "
                f"[0, {self.ssd.logical_pages}]"
            )
        if self.buffer_pages < 0:
            raise ConfigurationError("negative buffer size")
        if self.max_age_hours < 0 or self.mean_age_hours < 0:
            raise ConfigurationError("negative age parameter")
        if not 0.0 <= self.reduced_pool_fraction <= 1.0:
            raise ConfigurationError("reduced pool fraction outside [0, 1]")

    def initial_ages(self) -> np.ndarray:
        """Sampled initial data ages for the whole prefilled drive."""
        rng = np.random.default_rng(self.age_seed)
        ages = rng.exponential(self.mean_age_hours, size=self.ssd.logical_pages)
        return np.clip(ages, 0.0, self.max_age_hours)

    @property
    def pool_pages(self) -> int:
        """FlexLevel's ReducedCell pool size in pages."""
        return int(self.reduced_pool_fraction * self.ssd.logical_pages)


@dataclass(frozen=True)
class ReadServiceBreakdown:
    """Per-read sensing-round decomposition of a host read's service.

    The legacy queue engine only needs the scalar sum
    (:attr:`service_us`); the discrete-event simulator uses the rounds:
    the first round is the read at the sensing precision the system
    *provisioned* (tracked levels, or the worst case for the baseline),
    and each entry of :attr:`retry_rounds_us` is the incremental cost of
    escalating one more level when a decode fails (read retry).

    Attributes
    ----------
    lpn:
        Logical page read.
    buffer_hit:
        True when the write buffer answered; no flash sensing happened
        and there is nothing to retry.
    mode:
        Cell mode the page was read from (None on buffer hits).
    required_levels:
        Extra sensing levels the tracking policy says the page needs.
    provisioned_levels:
        Extra levels the first sensing round actually used (>= required
        for worst-case provisioning).
    first_round_us:
        Latency of the initial sense + transfer + decode round.
    retry_rounds_us:
        Incremental cost of each further escalation round available
        above ``provisioned_levels``, up to the sensing ladder's cap.
    post_read_us:
        Extra foreground service charged after the read itself
        (policy work on the critical path; normally zero).
    raw_ber:
        The page's raw BER — what a retry model turns into a
        round-failure probability.
    block:
        Physical block the page was sensed from (-1 on buffer hits and
        unmapped reads) — the media-telemetry aggregation key.
    pe_cycles:
        P/E wear of that block at read time (0 on buffer hits).
    age_hours:
        Data age of the page at read time (0 on buffer hits).
    """

    lpn: int
    buffer_hit: bool
    mode: CellMode | None
    required_levels: int
    provisioned_levels: int
    first_round_us: float
    retry_rounds_us: tuple[float, ...]
    post_read_us: float
    raw_ber: float
    block: int = -1
    pe_cycles: float = 0.0
    age_hours: float = 0.0

    @property
    def service_us(self) -> float:
        """Retry-free service time (the legacy engine's scalar)."""
        return self.first_round_us + self.post_read_us


class StorageSystem(ABC):
    """Mechanism shared by all four systems; policy in the subclasses."""

    name: str = "abstract"

    def __init__(
        self,
        config: SystemConfig,
        level_adjust: LevelAdjustPolicy | None = None,
        latency_model: ReadLatencyModel | None = None,
        reduced_prefix_pages: int = 0,
        fault_injector: "FaultInjector | None" = None,
        recovery=None,
        ssd: Ssd | None = None,
    ):
        self.config = config
        self.level_adjust = level_adjust or LevelAdjustPolicy()
        self.latency = latency_model or ReadLatencyModel()
        if ssd is not None:
            # A pre-built (recovered) SSD: crash recovery rebuilds the
            # device from the durable medium and re-wraps it in a fresh
            # system — see repro.sim.crash.
            self.ssd = ssd
        else:
            self.ssd = Ssd(
                config.ssd,
                prefill_pages=config.ssd.logical_pages,
                reduced_prefix_pages=reduced_prefix_pages,
                initial_age_hours=config.initial_ages(),
                fault_injector=fault_injector,
                recovery=recovery,
            )
        self.buffer = WriteBuffer(config.buffer_pages)
        self._pending_background_us = 0.0
        self._retry_tails: dict[int, tuple[float, ...]] = {}
        self._read_latencies: dict[int, float] = {}

    # --- host interface ------------------------------------------------------------

    def serve_read_page(self, lpn: int, now_us: float) -> float:
        """Service time of a one-page host read."""
        return self.read_page_breakdown(lpn, now_us).service_us

    def read_page_breakdown(self, lpn: int, now_us: float) -> ReadServiceBreakdown:
        """Serve a one-page host read, returning the sensing-round
        breakdown instead of a single scalar latency.

        Performs the same state transitions as :meth:`serve_read_page`
        (buffer lookup, stats, post-read policy work) — call one or the
        other per read, not both.
        """
        if self.buffer.read_hit(lpn):
            self.ssd.stats.buffer_hits += 1
            return ReadServiceBreakdown(
                lpn=lpn,
                buffer_hit=True,
                mode=None,
                required_levels=0,
                provisioned_levels=0,
                first_round_us=self.config.ssd.timing.buffer_hit_us,
                retry_rounds_us=(),
                post_read_us=0.0,
                raw_ber=0.0,
            )
        info = self.ssd.read_info(lpn, now_us)
        policy = self.level_adjust
        hits0, misses0 = policy.cache_hits, policy.cache_misses
        required, ber = policy.levels_and_ber(info.mode, info.pe_cycles, info.age_hours)
        self.ssd.stats.ber_cache_hits += policy.cache_hits - hits0
        self.ssd.stats.ber_cache_misses += policy.cache_misses - misses0
        self.ssd.stats.record_extra_levels(required)
        provisioned = self._provisioned_levels(required, info.mode)
        first_round = self._read_latency(required, info.mode)
        post_read = self._after_read(lpn, info.mode, required, now_us)
        if self.ssd.fault_injector is not None:
            # Read scrub: refresh pages whose BER crossed the trigger;
            # the rewrite is background work, not this read's latency.
            self._pending_background_us += self.ssd.scrub_if_needed(
                lpn, required, now_us
            )
        return ReadServiceBreakdown(
            lpn=lpn,
            buffer_hit=False,
            mode=info.mode,
            required_levels=required,
            provisioned_levels=provisioned,
            first_round_us=first_round,
            retry_rounds_us=self._retry_tail(provisioned),
            post_read_us=post_read,
            raw_ber=ber,
            block=info.block,
            pe_cycles=info.pe_cycles,
            age_hours=info.age_hours,
        )

    def serve_write_page(self, lpn: int, now_us: float) -> float:
        """Service time of a one-page host write (write-back buffered).

        The host is acknowledged at buffer insertion; the evicted
        page's flash program and any GC it triggers are background work
        (queued via :meth:`take_background_us`) that delays *later*
        requests but not this one — write-back semantics, which is why
        the paper adds the buffer to FlashSim.
        """
        if self.ssd.recovery is not None:
            # Durable-medium bookkeeping: the host's data version is
            # assigned at dispatch (buffer insertion = acknowledgement).
            self.ssd.recovery.note_host_write(lpn, now_us)
        evicted = self.buffer.write(lpn)
        service = self.config.ssd.timing.buffer_hit_us
        if evicted is not None:
            program, gc = self.ssd.host_write(evicted, self.write_mode(evicted), now_us)
            self._pending_background_us += program + gc
        return service

    def take_background_us(self) -> float:
        """Drain accumulated background (GC) work, in microseconds."""
        pending = self._pending_background_us
        self._pending_background_us = 0.0
        return pending

    def publish_metrics(self, registry) -> None:
        """Publish the system's counters into a shared
        :class:`repro.obs.metrics.MetricsRegistry` namespace (FTL and
        device counters via the SSD, plus system-held state)."""
        self.ssd.publish_metrics(registry)
        registry.gauge("ftl.write_buffer.occupancy_pages").set(len(self.buffer))

    def flush(self, now_us: float) -> float:
        """Drain the write buffer (end of run); returns flash work."""
        service = 0.0
        for lpn in self.buffer.drain():
            program, gc = self.ssd.host_write(lpn, self.write_mode(lpn), now_us)
            service += program + gc
        return service

    # --- policy hooks --------------------------------------------------------------

    @abstractmethod
    def write_mode(self, lpn: int) -> CellMode:
        """Cell mode a flushed page is written in."""

    def _provisioned_levels(self, required_levels: int, mode: CellMode) -> int:
        """Extra sensing levels the first read round is issued at."""
        return required_levels

    def _read_latency(self, required_levels: int, mode: CellMode) -> float:
        """Read latency given the page's required sensing levels."""
        provisioned = self._provisioned_levels(required_levels, mode)
        latency = self._read_latencies.get(provisioned)
        if latency is None:
            latency = self.latency.read_latency_us(provisioned)
            self._read_latencies[provisioned] = latency
        return latency

    def _retry_tail(self, provisioned_levels: int) -> tuple[float, ...]:
        """Incremental retry-round costs above ``provisioned_levels``."""
        tail = self._retry_tails.get(provisioned_levels)
        if tail is None:
            tail = tuple(
                self.latency.retry_increment_us(level)
                for level in range(
                    provisioned_levels + 1, self.level_adjust.sensing.max_levels + 1
                )
            )
            self._retry_tails[provisioned_levels] = tail
        return tail

    def _after_read(
        self, lpn: int, mode: CellMode, required_levels: int, now_us: float
    ) -> float:
        """Post-read policy work (AccessEval migrations); extra service us."""
        return 0.0


class BaselineSystem(StorageSystem):
    """No scheme: sensing is provisioned for the worst-case page.

    Without per-page tracking the controller cannot risk decode
    failures, so every read senses at the level count the oldest, most
    worn page requires (paper's 7x-slowdown regime).
    """

    name = "baseline"

    def __init__(self, config: SystemConfig, **kwargs):
        super().__init__(config, **kwargs)
        self.worst_levels = self.level_adjust.extra_levels(
            CellMode.NORMAL, config.ssd.initial_pe_cycles, config.max_age_hours
        )

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.NORMAL

    def _provisioned_levels(self, required_levels: int, mode: CellMode) -> int:
        return max(self.worst_levels, required_levels)


class LdpcInSsdSystem(StorageSystem):
    """LDPC-in-SSD (Zhao et al., FAST'13): adaptive sensing precision.

    The controller tracks each region's BER progression and senses with
    exactly the levels the page requires.
    """

    name = "ldpc-in-ssd"

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.NORMAL


class LevelAdjustOnlySystem(StorageSystem):
    """LevelAdjust without AccessEval: the whole working set is reduced.

    Reads are uniformly fast (reduced-state BER stays below the
    extra-sensing trigger) but 25 % of the occupied physical space is
    sacrificed, eating the over-provisioning and inflating GC traffic.
    """

    name = "leveladjust-only"

    def __init__(self, config: SystemConfig, **kwargs):
        prefix = self.max_reduced_prefix(config.ssd)
        if prefix < config.footprint_pages:
            # The hot set itself does not fit in reduced state with any
            # room to spare — the paper's capacity-loss tension made
            # concrete.  Run with whatever fits; GC pressure does the rest.
            pass
        kwargs.setdefault("reduced_prefix_pages", prefix)
        super().__init__(config, **kwargs)

    @staticmethod
    def max_reduced_prefix(ssd: SsdConfig) -> int:
        """Largest number of logical pages storable in reduced state.

        LevelAdjust-only compensates the 25 % density loss out of the
        over-provisioning (paper §4.3), converting as much of the drive
        as physically fits while keeping a minimal GC reserve — which is
        precisely why its garbage collector then thrashes.
        """
        reserve = ssd.gc_free_block_threshold + max(2, ssd.n_blocks // 20)
        budget = ssd.n_blocks - reserve
        logical = ssd.logical_pages
        best = 0
        low, high = 0, logical
        while low <= high:
            mid = (low + high) // 2
            reduced_blocks = -(-mid // ssd.reduced_pages_per_block)
            normal_blocks = -(-(logical - mid) // ssd.pages_per_block)
            if reduced_blocks + normal_blocks <= budget:
                best = mid
                low = mid + 1
            else:
                high = mid - 1
        return best

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.REDUCED


class FlexLevelSystem(StorageSystem):
    """LevelAdjust + AccessEval: reduced state only for HLO data."""

    name = "flexlevel"

    def __init__(self, config: SystemConfig, **kwargs):
        super().__init__(config, **kwargs)
        rule = OverheadRule(
            freq_levels=config.freq_levels,
            sensing_buckets=config.sensing_buckets,
            max_extra_levels=self.level_adjust.sensing.max_levels,
        )
        hotness = MultiBloomHotness(
            freq_levels=config.freq_levels, window=config.hotness_window
        )
        self.access_eval = AccessEval(
            pool_pages=config.pool_pages,
            identifier=HloIdentifier(rule=rule, hotness=hotness),
        )

    def write_mode(self, lpn: int) -> CellMode:
        return CellMode.REDUCED if lpn in self.access_eval.pool else CellMode.NORMAL

    def publish_metrics(self, registry) -> None:
        super().publish_metrics(registry)
        registry.gauge("core.access_eval.pool_pages").set(
            len(self.access_eval.pool)
        )
        registry.gauge("core.access_eval.pool_fill_fraction").set(
            self.access_eval.pool.fill_fraction()
        )

    def _after_read(
        self, lpn: int, mode: CellMode, required_levels: int, now_us: float
    ) -> float:
        if self.ssd.read_only:
            # Degraded mode: migrations are writes; stop promoting and
            # demoting (AccessEval bookkeeping would drift from reality).
            return 0.0
        decision = self.access_eval.on_read(lpn, required_levels)
        if decision.promote:
            # The host already has its data; re-writing the page into a
            # reduced-state block happens off the critical path.
            foreground, gc = self.ssd.migrate(lpn, CellMode.REDUCED, now_us)
            self._pending_background_us += foreground + gc
            self.ssd.stats.promotions += 1
        if decision.demote_lpn is not None:
            foreground, gc = self.ssd.migrate(decision.demote_lpn, CellMode.NORMAL, now_us)
            self._pending_background_us += foreground + gc
            self.ssd.stats.demotions += 1
        return 0.0


_SYSTEMS = {
    cls.name: cls
    for cls in (BaselineSystem, LdpcInSsdSystem, LevelAdjustOnlySystem, FlexLevelSystem)
}


def system_names() -> tuple[str, ...]:
    """All comparable system names, in the paper's order."""
    return ("baseline", "ldpc-in-ssd", "leveladjust-only", "flexlevel")


def build_system(
    name: str,
    config: SystemConfig,
    level_adjust: LevelAdjustPolicy | None = None,
    latency_model: ReadLatencyModel | None = None,
    fault_injector: FaultInjector | None = None,
    recovery=None,
    ssd: Ssd | None = None,
) -> StorageSystem:
    """Instantiate a system by its paper name."""
    if name not in _SYSTEMS:
        raise ConfigurationError(
            f"unknown system {name!r}; choose from {system_names()}"
        )
    return _SYSTEMS[name](
        config,
        level_adjust=level_adjust,
        latency_model=latency_model,
        fault_injector=fault_injector,
        recovery=recovery,
        ssd=ssd,
    )
