"""Crash-consistent FTL recovery: OOB metadata, journal, remount scan.

The FTL mutates its mapping eagerly — at dispatch time — while the
physical flash operation completes later.  A sudden power-off
(:mod:`repro.faults.power`) lands between the two, so recovery cannot
trust any in-RAM structure; it must rebuild the mapping from what the
*medium* durably holds.  This module models exactly that:

* :class:`RecoveryManager` — the durable medium's view of the drive: an
  append-only record log of page programs (with per-page OOB metadata:
  LPN, global sequence number, host version, block mode, age
  bookkeeping, and the physical ``[start, end)`` interval of the
  program pulse), block erases, TRIM tombstones and block retirements.
* a periodic **checkpoint** of the durable mapping plus a write-ahead
  **journal** of every mapping delta since (the un-folded suffix of the
  record log).
* :meth:`RecoveryManager.scan_at` — the full OOB remount scan: read
  every physically present page's OOB, keep the highest sequence number
  per LPN, discard torn pages.
* :meth:`RecoveryManager.replay_at` — the fast path: load the latest
  checkpoint and replay the journal.  Both paths provably reach the
  same mapping (pinned in tests/ftl/test_recovery.py).
* :func:`rebuild_ssd` — a fresh :class:`~repro.ftl.ssd.Ssd` whose
  arrays are restored from a recovered medium state.

Physical-time model.  Within one FTL invocation an intra-call clock
starts at ``now_us`` and each flash pulse occupies ``[clock, clock +
op_us)``; chained GC work (relocations, then the victim erase)
serialises physically.  Two per-block rules close the crash races:

* a program into block *b* starts no earlier than *b*'s last erase
  pulse ends (no programming mid-erase);
* an erase of block *b* starts no earlier than the end of every
  program that *superseded* a page living in *b*
  (``safe_erase_after``) — so a durable erase only ever destroys pages
  whose newer copy is itself durable, and an interrupted erase only
  destroys stale data.

Loss semantics.  A crash at ``T`` classifies every program record:
*durable* (``phys_end <= T``), *torn* (``phys_start <= T < phys_end``)
or *never happened* (``phys_start > T``).  Power-loss-protection
capacitors flush the controller's volatile state: for every LPN the
host dispatched at or before ``T``, the newest acknowledged version not
durably on the medium (buffer-resident, torn, or queued behind the cut)
is replayed at remount as a fresh host write.  Torn GC/migration/scrub
copies are discarded — their source copy is durable by the safe-erase
rule.  Net: every write *dispatched* before the cut survives recovery;
only never-dispatched requests are lost.  See docs/RECOVERY.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, SimulationError
from repro.ftl.config import SsdConfig


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the crash-consistency machinery.

    Parameters
    ----------
    checkpoint_interval_us:
        Virtual-time gap between mapping-table checkpoints.  Smaller
        intervals shorten the journal (faster remount) but model more
        metadata traffic; ``bench_crash_recovery`` sweeps this curve.
    oob_read_us:
        Cost of reading one page's OOB area during a full remount scan.
    journal_entry_us:
        Cost of replaying one journal entry at remount.
    checkpoint_load_us:
        Flat cost of loading the checkpoint image at remount.
    program_us / erase_us:
        Physical pulse lengths used for the durable-medium intervals
        and the recovery replay/re-erase cost (defaults match
        :data:`repro.ftl.config.NAND_TIMING`).
    verify_scan:
        When recovering via checkpoint+journal, also run the full OOB
        scan and raise if the two mappings disagree (the crash
        invariant, kept on in tests and the CLI default).
    """

    checkpoint_interval_us: float = 500_000.0
    oob_read_us: float = 20.0
    journal_entry_us: float = 2.0
    checkpoint_load_us: float = 1_000.0
    program_us: float = 1_000.0
    erase_us: float = 3_000.0
    verify_scan: bool = True

    def __post_init__(self) -> None:
        for name in (
            "checkpoint_interval_us",
            "oob_read_us",
            "journal_entry_us",
            "checkpoint_load_us",
            "program_us",
            "erase_us",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"non-positive {name}: {value}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_interval_us": self.checkpoint_interval_us,
            "oob_read_us": self.oob_read_us,
            "journal_entry_us": self.journal_entry_us,
            "checkpoint_load_us": self.checkpoint_load_us,
            "program_us": self.program_us,
            "erase_us": self.erase_us,
            "verify_scan": self.verify_scan,
        }


@dataclass(slots=True)
class ProgramRecord:
    """One page program's OOB metadata plus its physical pulse."""

    seq: int
    lpn: int
    ppn: int
    kind: str  # host | gc | migration | scrub | prefill | recovered
    mode: int  # _MODE_TO_INT encoding of the block mode
    host_version: int
    now_us: float
    phys_start_us: float
    phys_end_us: float
    write_time_hours: float  # NaN = prefilled (age from initial_age)
    initial_age_hours: float


@dataclass(slots=True)
class EraseRecord:
    seq: int
    block: int
    now_us: float
    phys_start_us: float
    phys_end_us: float


@dataclass(slots=True)
class TrimRecord:
    seq: int
    lpn: int
    now_us: float


@dataclass(slots=True)
class RetireRecord:
    seq: int
    block: int
    now_us: float


@dataclass
class Checkpoint:
    """Durable mapping snapshot at time ``time_us``.

    ``live`` holds only records durable at the checkpoint instant —
    never an in-flight program — so a checkpoint can always be trusted
    verbatim at remount; in-flight work stays in the journal.

    ``folded_seq`` is the exclusive sequence-number horizon of what the
    snapshot could have seen: journal membership is decided by *seq*,
    not physical time alone, because the DES engine can append a record
    whose physical window predates the append instant (a queued program
    scheduled onto a channel that freed earlier).  Such a record lands
    before ``time_us`` physically but after the checkpoint was cut —
    it must replay from the journal.
    """

    time_us: float
    live: dict[int, ProgramRecord]
    erase_end: dict[int, float]
    erase_counts: dict[int, int]
    tombstones: dict[int, int]
    folded_seq: int = 0


@dataclass
class MediumState:
    """What the medium durably holds at one crash instant ``T``."""

    time_us: float
    live: dict[int, ProgramRecord]  # lpn -> highest-seq durable record
    erase_end: dict[int, float]
    erase_counts: dict[int, int]
    incomplete_erase: set[int]
    scan_pages_read: int = 0
    journal_entries: int = 0
    journal_replayed: int = 0

    def mapping(self) -> dict[int, tuple[int, int]]:
        """The recovered L2P as ``{lpn: (ppn, seq)}`` (for equality)."""
        return {lpn: (rec.ppn, rec.seq) for lpn, rec in self.live.items()}

    def versions(self) -> dict[int, int]:
        """Recovered per-LPN host versions (data-identity fingerprint)."""
        return {lpn: rec.host_version for lpn, rec in self.live.items()}


@dataclass
class RecoveryReport:
    """Recovery-time attribution of one remount."""

    crash_us: float
    strategy: str  # "journal" or "scan"
    checkpoint_age_us: float
    journal_entries: int
    journal_replayed: int
    scan_pages_read: int
    live_pages: int
    torn_pages: int
    discarded_pages: int
    plp_pages: int
    reerased_blocks: int
    grown_bad_replayed: int
    scan_matches_replay: bool
    plp_flush_us: float = 0.0
    checkpoint_load_us: float = 0.0
    journal_replay_us: float = 0.0
    oob_scan_us: float = 0.0
    reconcile_us: float = 0.0
    reerase_us: float = 0.0

    @property
    def recovery_time_us(self) -> float:
        return (
            self.plp_flush_us
            + self.checkpoint_load_us
            + self.journal_replay_us
            + self.oob_scan_us
            + self.reconcile_us
            + self.reerase_us
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "crash_us": self.crash_us,
            "strategy": self.strategy,
            "checkpoint_age_us": self.checkpoint_age_us,
            "journal_entries": self.journal_entries,
            "journal_replayed": self.journal_replayed,
            "scan_pages_read": self.scan_pages_read,
            "live_pages": self.live_pages,
            "torn_pages": self.torn_pages,
            "discarded_pages": self.discarded_pages,
            "plp_pages": self.plp_pages,
            "reerased_blocks": self.reerased_blocks,
            "grown_bad_replayed": self.grown_bad_replayed,
            "scan_matches_replay": self.scan_matches_replay,
            "recovery_time_us": self.recovery_time_us,
            "breakdown_us": {
                "plp_flush": self.plp_flush_us,
                "checkpoint_load": self.checkpoint_load_us,
                "journal_replay": self.journal_replay_us,
                "oob_scan": self.oob_scan_us,
                "reconcile": self.reconcile_us,
                "reerase": self.reerase_us,
            },
        }

    def publish(self, registry) -> None:
        """``ftl.recovery.*`` metrics into a MetricsRegistry."""
        registry.counter("ftl.recovery.runs").inc()
        registry.gauge("ftl.recovery.time_us").set(self.recovery_time_us)
        registry.gauge("ftl.recovery.checkpoint_age_us").set(
            self.checkpoint_age_us
        )
        registry.counter("ftl.recovery.journal_replayed").inc(
            self.journal_replayed
        )
        registry.counter("ftl.recovery.scan_pages_read").inc(
            self.scan_pages_read
        )
        registry.counter("ftl.recovery.torn_pages").inc(self.torn_pages)
        registry.counter("ftl.recovery.plp_pages").inc(self.plp_pages)
        registry.counter("ftl.recovery.reerased_blocks").inc(
            self.reerased_blocks
        )


def recovery_fingerprint(artifact: dict) -> str:
    """Deterministic 16-hex-digit fingerprint of a recovery artifact.

    Like :func:`repro.obs.manifest.fingerprint` — the sorted-JSON body
    with any existing ``fingerprint`` key removed — but with compact
    separators, which every recorded crash and recovery fingerprint
    depends on.  The artifact
    holds only virtual-time quantities, so a fixed (seed, config,
    crash point) reproduces it byte for byte on any machine.
    """
    body = {k: v for k, v in artifact.items() if k != "fingerprint"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class RecoveryManager:
    """The durable medium: record log, checkpoints, crash remount.

    Attach one to an :class:`~repro.ftl.ssd.Ssd` (constructor
    ``recovery=`` parameter); the SSD's mutation paths call the
    ``record_*`` hooks.  Without a manager attached the SSD's behaviour
    is byte-identical to a build without this module.
    """

    def __init__(self, config: RecoveryConfig, ssd_config: SsdConfig):
        self.config = config
        self.ssd_config = ssd_config
        self._log: list[Any] = []
        self._next_seq = 1
        # Intra-call physical clock: begin_op pins it to the call's
        # now_us; each recorded pulse advances it.
        self._call_now = 0.0
        self._clock = 0.0
        # Per-block physical constraints.
        self._last_erase_end: dict[int, float] = {}
        self._last_program_end: dict[int, float] = {}
        self._safe_erase_after: dict[int, float] = {}
        # Erase counts folded out of the log by reseeding (repeated
        # crash/recover cycles keep wear monotone).
        self._erase_base: dict[int, int] = {}
        # Host-version bookkeeping: bumped when the host dispatches a
        # write (note_host_write), stamped into the OOB at program time.
        self._host_versions: dict[int, int] = {}
        self.ack_log: list[tuple[float, int, int]] = []
        # lpn -> newest recorded copy (drives safe-erase + age patches).
        self._live_rec: dict[int, ProgramRecord] = {}
        # lpn -> host version of the data in the current flash copy
        # (GC/migration/scrub rewrite old data, not the newest dispatch).
        self._flash_version: dict[int, int] = {}
        self._tombstones: dict[int, int] = {}
        # Every checkpoint of this manager's lifetime (reseeding after
        # a recovery starts a fresh list, so the history stays bounded
        # by one engine leg).  Remount picks the newest one durable at
        # the cut — a later checkpoint may carry a future stamp (DES
        # dispatches ahead of physical time) and thus not exist yet.
        self._checkpoints: list[Checkpoint] = []
        self._last_checkpoint_us = 0.0
        self.checkpoints_taken = 0

    # --- recording hooks (called by Ssd) ----------------------------------------

    def begin_op(self, now_us: float) -> None:
        """Pin the intra-call physical clock to a new FTL invocation."""
        self._call_now = now_us
        self._clock = now_us

    def note_host_write(self, lpn: int, now_us: float) -> int:
        """The host dispatched a write: bump and log its data version."""
        version = self._host_versions.get(lpn, 0) + 1
        self._host_versions[lpn] = version
        self.ack_log.append((now_us, lpn, version))
        return version

    def record_prefill(
        self, lpn: int, ppn: int, mode: int, initial_age_hours: float
    ) -> None:
        """Seed one prefilled page as durable history at time zero."""
        self._append_program(
            lpn,
            ppn,
            kind="prefill",
            mode=mode,
            host_version=0,
            now_us=0.0,
            phys_start_us=0.0,
            phys_end_us=0.0,
            write_time_hours=math.nan,
            initial_age_hours=initial_age_hours,
        )

    def record_program(
        self,
        lpn: int,
        ppn: int,
        mode: int,
        kind: str,
        write_time_hours: float,
        initial_age_hours: float,
    ) -> None:
        """One successful page program at the intra-call clock."""
        block = ppn // self.ssd_config.pages_per_block
        start = max(self._clock, self._last_erase_end.get(block, 0.0))
        end = start + self.config.program_us
        self._clock = end
        if kind == "host":
            version = self._host_versions.get(lpn, 0)
        else:
            version = self._flash_version.get(lpn, 0)
        self._append_program(
            lpn,
            ppn,
            kind=kind,
            mode=mode,
            host_version=version,
            now_us=self._call_now,
            phys_start_us=start,
            phys_end_us=end,
            write_time_hours=write_time_hours,
            initial_age_hours=initial_age_hours,
        )
        self._maybe_checkpoint()

    def patch_write_time(self, lpn: int, write_time_hours: float) -> None:
        """Fix up the newest record's age bookkeeping (migration
        preserves the data's age after ``_write_page`` stamped now)."""
        record = self._live_rec.get(lpn)
        if record is not None:
            record.write_time_hours = write_time_hours

    def record_erase(self, block: int) -> None:
        """One block erase; physically after every superseding program."""
        start = max(
            self._clock,
            self._safe_erase_after.get(block, 0.0),
            self._last_program_end.get(block, 0.0),
        )
        end = start + self.config.erase_us
        self._clock = end
        self._log.append(
            EraseRecord(
                seq=self._next_seq,
                block=block,
                now_us=self._call_now,
                phys_start_us=start,
                phys_end_us=end,
            )
        )
        self._next_seq += 1
        # The erase opens a fresh block cycle: old constraints are
        # obsolete, the erase pulse itself becomes the new floor.
        self._last_erase_end[block] = end
        self._safe_erase_after.pop(block, None)
        self._last_program_end.pop(block, None)
        self._maybe_checkpoint()

    def record_trim(self, lpn: int) -> None:
        """TRIM tombstone (synchronously durable metadata)."""
        self._log.append(
            TrimRecord(seq=self._next_seq, lpn=lpn, now_us=self._call_now)
        )
        self._tombstones[lpn] = self._next_seq
        self._next_seq += 1
        self._live_rec.pop(lpn, None)
        self._flash_version.pop(lpn, None)

    def record_retire(self, block: int) -> None:
        """Grown-bad retirement (synchronously durable metadata)."""
        self._log.append(
            RetireRecord(seq=self._next_seq, block=block, now_us=self._call_now)
        )
        self._next_seq += 1

    def _append_program(self, lpn: int, ppn: int, **kw: Any) -> None:
        record = ProgramRecord(seq=self._next_seq, lpn=lpn, ppn=ppn, **kw)
        self._log.append(record)
        self._next_seq += 1
        block = ppn // self.ssd_config.pages_per_block
        self._last_program_end[block] = max(
            self._last_program_end.get(block, 0.0), record.phys_end_us
        )
        old = self._live_rec.get(lpn)
        if old is not None:
            old_block = old.ppn // self.ssd_config.pages_per_block
            self._safe_erase_after[old_block] = max(
                self._safe_erase_after.get(old_block, 0.0),
                record.phys_end_us,
            )
        self._live_rec[lpn] = record
        self._flash_version[lpn] = record.host_version

    # --- checkpoint + journal ---------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if (
            self._call_now - self._last_checkpoint_us
            >= self.config.checkpoint_interval_us
        ):
            self.take_checkpoint(self._call_now)

    def take_checkpoint(self, time_us: float) -> None:
        """Snapshot the mapping durable at ``time_us``.

        Only durable records are folded in — the live in-RAM ``l2p``
        may reference in-flight programs, so the checkpoint is computed
        from the medium's record log instead; in-flight entries stay in
        the journal (``phys_end > time_us``).
        """
        state = self.scan_at(time_us)
        self._checkpoints.append(
            Checkpoint(
                time_us=time_us,
                live=dict(state.live),
                erase_end=dict(state.erase_end),
                erase_counts=dict(state.erase_counts),
                tombstones={
                    e.lpn: e.seq
                    for e in self._log
                    if isinstance(e, TrimRecord) and e.now_us <= time_us
                },
                folded_seq=self._next_seq,
            )
        )
        self._last_checkpoint_us = time_us
        self.checkpoints_taken += 1

    def checkpoint_before(self, T: float) -> Checkpoint | None:
        """The newest checkpoint durably written at or before ``T``."""
        best: Checkpoint | None = None
        for cp in self._checkpoints:
            if cp.time_us <= T and (best is None or cp.time_us > best.time_us):
                best = cp
        return best

    @property
    def checkpoint_time_us(self) -> float | None:
        if not self._checkpoints:
            return None
        return max(cp.time_us for cp in self._checkpoints)

    # --- remount paths ----------------------------------------------------------

    def scan_at(self, T: float) -> MediumState:
        """Full OOB remount scan of the medium at crash instant ``T``.

        Physically: walk every block; skip blocks whose erase was
        interrupted (contents destroyed — and provably stale); read the
        OOB of every durable page programmed since the block's last
        durable erase; keep the highest sequence number per LPN;
        discard torn pages; honour TRIM tombstones.
        """
        erase_end: dict[int, float] = {}
        erase_counts = dict(self._erase_base)
        incomplete: set[int] = set()
        for e in self._log:
            if isinstance(e, EraseRecord):
                if e.phys_end_us <= T:
                    erase_end[e.block] = max(
                        erase_end.get(e.block, 0.0), e.phys_end_us
                    )
                    erase_counts[e.block] = erase_counts.get(e.block, 0) + 1
                elif e.phys_start_us <= T:
                    incomplete.add(e.block)
        live: dict[int, ProgramRecord] = {}
        pages_read = 0
        ppb = self.ssd_config.pages_per_block
        for r in self._log:
            if not isinstance(r, ProgramRecord):
                continue
            if r.phys_end_us > T:
                continue  # torn or never-happened: unreadable OOB
            block = r.ppn // ppb
            if block in incomplete:
                continue  # interrupted erase destroyed the block
            if r.phys_start_us < erase_end.get(block, 0.0):
                continue  # destroyed by a later durable erase
            pages_read += 1
            cur = live.get(r.lpn)
            if cur is None or r.seq > cur.seq:
                live[r.lpn] = r
        for e in self._log:
            if isinstance(e, TrimRecord) and e.now_us <= T:
                rec = live.get(e.lpn)
                if rec is not None and rec.seq < e.seq:
                    del live[e.lpn]
        return MediumState(
            time_us=T,
            live=live,
            erase_end=erase_end,
            erase_counts=erase_counts,
            incomplete_erase=incomplete,
            scan_pages_read=pages_read,
        )

    def replay_at(self, T: float) -> MediumState | None:
        """Checkpoint + journal remount at crash instant ``T``.

        Returns None when no checkpoint exists yet (the caller falls
        back to the full scan).  The journal is the un-folded suffix of
        the record log: every entry whose physical completion (or, for
        synchronous metadata, whose issue) postdates the checkpoint.
        """
        cp = self.checkpoint_before(T)
        if cp is None:
            return None
        erase_end = dict(cp.erase_end)
        erase_counts = dict(cp.erase_counts)
        tombstones = dict(cp.tombstones)
        incomplete: set[int] = set()
        ppb = self.ssd_config.pages_per_block
        entries = 0
        replayed = 0
        # Journal order is *append* (seq) order, but physical pulse
        # windows can be out of order under the DES engine's future
        # stamping: a program appended after an erase record may start
        # before that erase's pulse ends (and vice versa).  Replay is
        # therefore structured like the scan — erase geometry first,
        # then programs filtered against it — instead of applying
        # records incrementally in log order, which would let a program
        # survive an erase it physically lost to.
        for e in self._log:
            if not isinstance(e, EraseRecord):
                continue
            if e.seq < cp.folded_seq and e.phys_end_us <= cp.time_us:
                continue  # folded into the checkpoint
            entries += 1
            if e.phys_start_us > T:
                continue  # never happened at T
            replayed += 1
            if e.phys_end_us <= T:
                erase_end[e.block] = max(
                    erase_end.get(e.block, 0.0), e.phys_end_us
                )
                erase_counts[e.block] = erase_counts.get(e.block, 0) + 1
            else:
                incomplete.add(e.block)
        live: dict[int, ProgramRecord] = {}
        for lpn, rec in cp.live.items():
            block = rec.ppn // ppb
            if block in incomplete:
                continue
            if rec.phys_start_us < erase_end.get(block, 0.0):
                continue  # destroyed by a post-checkpoint erase
            live[lpn] = rec
        for r in self._log:
            if not isinstance(r, ProgramRecord):
                continue
            if r.seq < cp.folded_seq and r.phys_end_us <= cp.time_us:
                continue  # folded into the checkpoint
            entries += 1
            if r.phys_end_us > T:
                continue  # torn / never happened at T
            replayed += 1
            block = r.ppn // ppb
            if block in incomplete:
                continue
            if r.phys_start_us < erase_end.get(block, 0.0):
                continue
            cur = live.get(r.lpn)
            if cur is None or r.seq > cur.seq:
                live[r.lpn] = r
        for e in self._log:
            if not isinstance(e, TrimRecord):
                continue
            if e.seq < cp.folded_seq and e.now_us <= cp.time_us:
                continue
            entries += 1
            if e.now_us > T:
                continue
            replayed += 1
            tombstones[e.lpn] = max(tombstones.get(e.lpn, 0), e.seq)
        for lpn, tseq in tombstones.items():
            rec = live.get(lpn)
            if rec is not None and rec.seq < tseq:
                del live[lpn]
        return MediumState(
            time_us=T,
            live=live,
            erase_end=erase_end,
            erase_counts=erase_counts,
            incomplete_erase=incomplete,
            journal_entries=entries,
            journal_replayed=replayed,
        )

    # --- crash classification ---------------------------------------------------

    def torn_programs(self, T: float) -> list[ProgramRecord]:
        """Programs physically in flight at the cut."""
        return [
            r
            for r in self._log
            if isinstance(r, ProgramRecord)
            and r.phys_start_us <= T < r.phys_end_us
        ]

    def plp_log(
        self, T: float, durable_versions: dict[int, int]
    ) -> dict[int, int]:
        """Power-loss-protected data: ``{lpn: host_version}`` to replay.

        The capacitor flush covers the controller's volatile state: for
        every LPN the host dispatched (acknowledged) at or before ``T``,
        the newest dispatched version that the medium does *not* durably
        hold — write-buffer residents, torn host programs, and host
        programs the engine decided ahead of physical time (a saturated
        DES channel queue stamps service starts past the cut; at ``T``
        that data physically still sits in the buffer).
        :meth:`volatile_host_lpns` pins that each such page really is
        volatile at ``T``.
        """
        plp: dict[int, int] = {}
        for lpn, version in self.host_versions_at(T).items():
            if durable_versions.get(lpn, 0) < version:
                plp[lpn] = version
        return plp

    def volatile_host_lpns(self, T: float) -> set[int]:
        """LPNs with host data volatile at ``T`` besides buffer residents:
        programs in flight (``now <= T < phys_end``) or decided ahead of
        physical time (``now > T``)."""
        return {
            r.lpn
            for r in self._log
            if isinstance(r, ProgramRecord)
            and r.kind == "host"
            and r.phys_end_us > T
        }

    def grown_retired_at(self, T: float) -> list[int]:
        """Grown-bad retirements durable at ``T`` (metadata, sync)."""
        return [
            e.block
            for e in self._log
            if isinstance(e, RetireRecord) and e.now_us <= T
        ]

    def host_versions_at(self, T: float) -> dict[int, int]:
        """Per-LPN newest version dispatched by the host at ``T``."""
        versions: dict[int, int] = {}
        for now_us, lpn, version in self.ack_log:
            if now_us <= T and version > versions.get(lpn, 0):
                versions[lpn] = version
        return versions

    # --- reseeding (after a successful recovery) --------------------------------

    def reseed(
        self, state: MediumState, recovered_end_us: float
    ) -> "RecoveryManager":
        """A fresh manager whose log starts from the recovered state.

        Sequence numbers, host versions and per-block wear carry over
        so repeated crash/recover cycles stay monotone; the old log's
        dead weight (superseded records, folded erases) is dropped.
        """
        fresh = RecoveryManager(self.config, self.ssd_config)
        fresh._next_seq = self._next_seq
        # Versions re-anchor to the dispatch history at the cut: bumps
        # from requests that never physically dispatched (aborted) are
        # dropped, so post-recovery stamps stay aligned with what the
        # host actually acknowledged.  A durable stamp above the legit
        # count (an unacked write that happened to land) keeps the
        # counter monotone via the max below.
        fresh._host_versions = self.host_versions_at(state.time_us)
        fresh._erase_base = dict(state.erase_counts)
        for block in state.incomplete_erase:
            # The interrupted erase is redone during recovery.
            fresh._erase_base[block] = fresh._erase_base.get(block, 0) + 1
            fresh._last_erase_end[block] = recovered_end_us
        for lpn in sorted(state.live):
            rec = state.live[lpn]
            fresh._append_program(
                lpn,
                rec.ppn,
                kind="recovered",
                mode=rec.mode,
                host_version=rec.host_version,
                now_us=0.0,
                phys_start_us=0.0,
                phys_end_us=0.0,
                write_time_hours=rec.write_time_hours,
                initial_age_hours=rec.initial_age_hours,
            )
            # Preserve the original OOB identity of the carried page.
            fresh._log[-1].seq = rec.seq
            if rec.host_version > fresh._host_versions.get(lpn, 0):
                fresh._host_versions[lpn] = rec.host_version
        # Remount writes a fresh checkpoint (real FTLs do the same):
        # the next crash replays from here instead of re-scanning the
        # carried history, and the periodic interval restarts cleanly.
        fresh.take_checkpoint(recovered_end_us)
        return fresh


def rebuild_ssd(
    manager: RecoveryManager,
    state: MediumState,
    fault_config=None,
):
    """A fresh :class:`~repro.ftl.ssd.Ssd` restored from ``state``.

    The same deterministic fault config reproduces the manufacture-bad
    set; grown retirements are replayed from the medium's metadata.
    Recovered data blocks come back *closed* (their write pointer at
    the mode's usable size) so no new program ever lands over a torn
    offset — garbage collection reclaims them through the normal path.
    Returns ``(ssd, reerased_blocks, grown_replayed, rescued_lpns)``.
    """
    from repro.faults import FaultInjector
    from repro.ftl.ssd import _BAD, _FREE, Ssd

    config = manager.ssd_config
    injector = None
    if fault_config is not None and fault_config.enabled:
        injector = FaultInjector(fault_config)
    ssd = Ssd(config, prefill_pages=0, fault_injector=injector)
    ppb = config.pages_per_block

    grown = manager.grown_retired_at(state.time_us)
    for block in grown:
        if ssd.bad_block_table is not None and not ssd.bad_block_table.exhausted:
            if block not in ssd.bad_block_table.manufacture_bad:
                ssd.bad_block_table.retire(block)
        ssd._block_mode[block] = _BAD
        if block in ssd._free_blocks:
            ssd._free_blocks.remove(block)

    # Blocks holding any physical content at T stay closed data blocks;
    # everything else (including re-erased interrupted blocks) is free.
    occupied_mode: dict[int, int] = {}
    for rec in state.live.values():
        occupied_mode[rec.ppn // ppb] = rec.mode
    for rec in manager.torn_programs(state.time_us):
        block = rec.ppn // ppb
        if block not in state.incomplete_erase:
            occupied_mode.setdefault(block, rec.mode)
    # Stale-but-present pages also occupy their block.
    for r in manager._log:
        if not isinstance(r, ProgramRecord):
            continue
        if r.phys_end_us > state.time_us:
            continue
        block = r.ppn // ppb
        if block in state.incomplete_erase:
            continue
        if r.phys_start_us < state.erase_end.get(block, 0.0):
            continue
        occupied_mode.setdefault(block, r.mode)

    for block, mode_int in sorted(occupied_mode.items()):
        if ssd._block_mode[block] == _BAD:
            continue
        ssd._block_mode[block] = mode_int
        ssd._block_write_ptr[block] = ssd.block_usable_pages(block)
        if block in ssd._free_blocks:
            ssd._free_blocks.remove(block)

    # Live pages whose block got retired before the cut (their fresh
    # relocation torn) are still readable off the bad block during
    # remount; they cannot be mapped there, so recovery rewrites them.
    rescued: list[int] = []
    for lpn in sorted(state.live):
        rec = state.live[lpn]
        block = rec.ppn // ppb
        if ssd._block_mode[block] == _BAD:
            rescued.append(lpn)
            continue
        ssd._l2p[lpn] = rec.ppn
        ssd._p2l[rec.ppn] = lpn
        ssd._page_valid[rec.ppn] = True
        ssd._block_valid[block] += 1
        ssd._write_time_hours[lpn] = rec.write_time_hours
        ssd._initial_age_hours[lpn] = rec.initial_age_hours

    for block, count in state.erase_counts.items():
        ssd._block_erase[block] = count
    reerased = 0
    for block in sorted(state.incomplete_erase):
        if ssd._block_mode[block] == _BAD:
            continue
        ssd._block_erase[block] += 1
        reerased += 1

    if ssd.bad_block_table is not None and ssd.bad_block_table.exhausted:
        ssd.read_only = True
    # Sanity: mapped pages must reference valid physical pages.
    for lpn, rec in state.live.items():
        if ssd._l2p[lpn] == _FREE:
            continue  # rescued: rewritten by the recovery driver
        if ssd._block_mode[rec.ppn // ppb] == _FREE:
            raise SimulationError(
                f"recovered page {lpn} maps into free block {rec.ppn // ppb}"
            )
    ssd.recovery = manager
    return ssd, reerased, len(grown), rescued
