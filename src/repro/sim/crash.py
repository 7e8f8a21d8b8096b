"""The crash → recover → resume pipeline.

:mod:`repro.faults.power` decides *when* power is lost and
:mod:`repro.ftl.recovery` models *what* the medium durably holds; this
module wires them end to end around the DES engine:

1. **Crash** — run the engine with a ``crash_us`` cut (fixed ``--at-us``
   point or the next draw of a seeded :class:`~repro.faults.power.
   SpoSchedule`); the run stops cold with in-flight requests aborted.
2. **Recover** — remount from the durable medium: checkpoint + journal
   replay when a checkpoint exists (optionally cross-checked against
   the full OOB scan), torn-page reconciliation, interrupted-erase
   redo, power-loss-protection replay of acknowledged-but-unprogrammed
   writes, grown-bad-table replay, FlexLevel pool re-derivation.  The
   crash invariant — *every write dispatched before the cut is
   readable after remount* — is verified at every cut, and the remount
   is attributed (``ftl.recovery.*`` metrics, a recovery span tree, a
   deterministic artifact with a ``recovery_fingerprint``).
3. **Resume** — wrap the rebuilt SSD in a fresh system and replay the
   trace suffix that never arrived (``arrival >= crash_us``); under a
   Poisson SPO schedule the cycle repeats up to ``max_crashes`` times.

Loss semantics (pinned in tests/sim/test_crash.py): reads aborted at
the cut are simply lost; writes *dispatched* before the cut all
survive (durable, PLP-flushed, or physically protected); writes never
dispatched belong to the resumed run.  See docs/RECOVERY.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.baselines.systems import (
    StorageSystem,
    SystemConfig,
    build_system,
)
from repro.core.level_adjust import CellMode
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultConfig, FaultInjector
from repro.faults.power import PowerConfig, SpoSchedule
from repro.ftl.recovery import (
    MediumState,
    RecoveryConfig,
    RecoveryManager,
    RecoveryReport,
    rebuild_ssd,
    recovery_fingerprint,
)
from repro.ftl.ssd import _MODE_TO_INT
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import WindowedRecorder
from repro.obs.tracing import Span
from repro.sim.des import DesSimulationEngine, ReadRetryModel, observe
from repro.sim.results import DesSimulationResult
from repro.traces.schema import TraceRecord


@dataclass
class RecoveryOutcome:
    """One remount: the recovered system plus its full attribution."""

    report: RecoveryReport
    state: MediumState
    span: Span
    artifact: dict[str, Any]
    system: StorageSystem
    recovered_end_us: float
    rescued: list[int]
    plp: dict[int, int]


@dataclass
class CrashCycle:
    """One engine leg and, if it was cut short, its recovery."""

    result: DesSimulationResult
    outcome: RecoveryOutcome | None = None


@dataclass
class CrashRunResult:
    """A whole crash/recover/resume run (possibly multiple cycles)."""

    system_name: str
    workload_name: str
    power: PowerConfig
    cycles: list[CrashCycle] = field(default_factory=list)
    #: The system the final leg ran on (post-recovery when it crashed
    #: at least once) — the CLI and tests inspect its SSD state.
    final_system: Any = None

    @property
    def crashes(self) -> int:
        return sum(1 for c in self.cycles if c.outcome is not None)

    @property
    def final(self) -> DesSimulationResult:
        return self.cycles[-1].result

    @property
    def reports(self) -> list[RecoveryReport]:
        return [c.outcome.report for c in self.cycles if c.outcome is not None]

    @property
    def artifacts(self) -> list[dict[str, Any]]:
        return [
            c.outcome.artifact for c in self.cycles if c.outcome is not None
        ]

    def to_dict(self) -> dict[str, Any]:
        """Deterministic artifact of the whole run (CLI ``--json``).

        Virtual-time quantities only — a fixed (trace, config, SPO
        seed) reproduces it byte for byte; ``fingerprint`` pins that
        in the determinism tests.  The constant ``engine`` key keeps
        the schema (and every recorded fingerprint) unchanged.
        """
        body: dict[str, Any] = {
            "schema": "repro/crash-run/v1",
            "system": self.system_name,
            "workload": self.workload_name,
            "engine": "des",
            "power": self.power.to_dict(),
            "crashes": self.crashes,
            "cycles": [
                {
                    "crashed": cycle.result.crashed,
                    "crash_us": cycle.result.crash_us,
                    "aborted_requests": cycle.result.aborted_requests,
                    "n_requests": cycle.result.n_requests,
                    "recovery": (
                        None
                        if cycle.outcome is None
                        else cycle.outcome.artifact
                    ),
                }
                for cycle in self.cycles
            ],
        }
        body["fingerprint"] = recovery_fingerprint(body)
        return body


def _mapping_digest(state: MediumState) -> str:
    """Content digest of the recovered mapping (identity + versions)."""
    body = json.dumps(
        [
            [lpn, rec.ppn, rec.seq, rec.host_version]
            for lpn, rec in sorted(state.live.items())
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _verify_plp_volatile(
    manager: RecoveryManager,
    plp: dict[int, int],
    buffer_lpns: list[int],
    crash_us: float,
) -> None:
    """The crash invariant's physical half: every acknowledged write
    the medium does not durably hold must still be controller-volatile
    at the cut — in the write buffer, or a host program not yet durable
    — or the capacitor flush could not save it."""
    volatile = set(buffer_lpns) | manager.volatile_host_lpns(crash_us)
    missing = sorted(set(plp) - volatile)
    if missing:
        raise SimulationError(
            f"crash invariant violated at {crash_us}: acknowledged lpns "
            f"{missing[:8]} are neither durable nor volatile at the cut"
        )


def recover(
    system: StorageSystem,
    crash_us: float,
    fault_config: FaultConfig | None = None,
    system_name: str | None = None,
) -> RecoveryOutcome:
    """Remount a crashed system from its durable medium.

    Returns a fresh, resumable :class:`StorageSystem` of the same kind
    wrapping the rebuilt SSD, plus the remount's full attribution.
    Raises :class:`~repro.errors.SimulationError` if the two remount
    paths disagree or an acknowledged write would be lost.
    """
    manager = system.ssd.recovery
    if manager is None:
        raise ConfigurationError(
            "system has no RecoveryManager attached; build it with "
            "recovery=RecoveryManager(...) to make it crash-recoverable"
        )
    cfg = manager.config
    torn = manager.torn_programs(crash_us)

    replay = manager.replay_at(crash_us)
    scan = None
    if replay is None or cfg.verify_scan:
        scan = manager.scan_at(crash_us)
    if replay is not None:
        state = replay
        strategy = "journal"
        if scan is not None and scan.mapping() != state.mapping():
            raise SimulationError(
                f"remount divergence at {crash_us}: full OOB scan and "
                f"checkpoint+journal replay produced different mappings"
            )
    else:
        state = scan
        strategy = "scan"

    # What the controller's capacitors flush on power loss: for each
    # acknowledged LPN, the newest dispatched version the medium does
    # not durably hold.
    plp = manager.plp_log(crash_us, state.versions())
    _verify_plp_volatile(manager, plp, system.buffer.residents(), crash_us)

    ssd, reerased, grown, rescued = rebuild_ssd(manager, state, fault_config)

    cp = manager.checkpoint_before(crash_us)
    checkpoint_age = crash_us - (cp.time_us if cp is not None else 0.0)
    torn_host = sum(1 for rec in torn if rec.kind == "host")
    report = RecoveryReport(
        crash_us=crash_us,
        strategy=strategy,
        checkpoint_age_us=checkpoint_age,
        journal_entries=state.journal_entries,
        journal_replayed=state.journal_replayed,
        scan_pages_read=state.scan_pages_read,
        live_pages=len(state.live),
        torn_pages=len(torn),
        discarded_pages=len(torn) - torn_host,
        plp_pages=len(plp),
        reerased_blocks=reerased,
        grown_bad_replayed=grown,
        scan_matches_replay=scan is not None,
        plp_flush_us=len(plp) * cfg.program_us,
        checkpoint_load_us=(
            cfg.checkpoint_load_us if strategy == "journal" else 0.0
        ),
        journal_replay_us=(
            state.journal_replayed * cfg.journal_entry_us
            if strategy == "journal"
            else 0.0
        ),
        oob_scan_us=(
            state.scan_pages_read * cfg.oob_read_us
            if strategy == "scan"
            else 0.0
        ),
        reconcile_us=len(torn) * cfg.oob_read_us,
        reerase_us=reerased * cfg.erase_us,
    )
    recovered_end_us = crash_us + report.recovery_time_us

    # The recovery span tree: sequential phases from the cut onward.
    span = Span("recovery", crash_us, strategy=strategy)
    cursor = crash_us
    for name, duration, attrs in (
        ("plp_flush", report.plp_flush_us, {"pages": len(plp)}),
        ("checkpoint_load", report.checkpoint_load_us, {}),
        (
            "journal_replay",
            report.journal_replay_us,
            {"entries": state.journal_replayed},
        ),
        ("oob_scan", report.oob_scan_us, {"pages": state.scan_pages_read}),
        ("reconcile", report.reconcile_us, {"torn_pages": len(torn)}),
        ("reerase", report.reerase_us, {"blocks": reerased}),
    ):
        if duration <= 0.0:
            continue
        span.span(name, cursor, **attrs).end(cursor + duration)
        cursor += duration
    span.end(recovered_end_us)

    # The manager carries over reseeded: same sequence/version/wear
    # counters, the recovered mapping as its new durable baseline.
    ssd.recovery = manager.reseed(state, recovered_end_us)

    name = system_name or system.name
    new_system = build_system(
        name,
        system.config,
        level_adjust=system.level_adjust,
        latency_model=system.latency,
        ssd=ssd,
    )

    # FlexLevel re-derives its ReducedCell pool from block modes (the
    # pool is volatile state); hotness restarts cold by design.
    if hasattr(new_system, "access_eval"):
        reduced = _MODE_TO_INT[CellMode.REDUCED]
        for lpn in sorted(state.live):
            if state.live[lpn].mode == reduced:
                new_system.access_eval.pool.admit(lpn)

    # Replay: pages rescued off retired blocks first, then the PLP set
    # (sorted for determinism; a newer PLP version supersedes a rescue).
    replayed_writes = 0
    if not ssd.read_only:
        for lpn in rescued:
            ssd.host_write(lpn, new_system.write_mode(lpn), recovered_end_us)
            replayed_writes += 1
        for lpn in sorted(plp):
            ssd.host_write(lpn, new_system.write_mode(lpn), recovered_end_us)
            replayed_writes += 1

    artifact: dict[str, Any] = {
        "schema": "repro/recovery/v1",
        "crash_us": crash_us,
        "system": name,
        "report": report.to_dict(),
        "recovery_config": cfg.to_dict(),
        "recovered_end_us": recovered_end_us,
        "live_pages": len(state.live),
        "rescued_pages": len(rescued),
        "replayed_writes": replayed_writes,
        "read_only": bool(ssd.read_only),
        "mapping_digest": _mapping_digest(state),
        "span": span.to_dict(),
    }
    artifact["fingerprint"] = recovery_fingerprint(artifact)

    return RecoveryOutcome(
        report=report,
        state=state,
        span=span,
        artifact=artifact,
        system=new_system,
        recovered_end_us=recovered_end_us,
        rescued=rescued,
        plp=plp,
    )


def run_with_crashes(
    system_name: str,
    config: SystemConfig,
    records: Sequence[TraceRecord],
    power: PowerConfig,
    recovery: RecoveryConfig | None = None,
    fault_config: FaultConfig | None = None,
    resume: bool = True,
    warmup_fraction: float = 0.0,
    n_channels: int = 1,
    retry: bool = False,
    workload_name: str = "unnamed",
    registry: MetricsRegistry | None = None,
    recorder: WindowedRecorder | None = None,
) -> CrashRunResult:
    """Run a trace under seeded SPO injection, recovering at each cut.

    With ``resume=False`` the run stops after the first recovery (the
    CLI's crash-then-inspect mode); otherwise the trace suffix that
    never arrived replays against the recovered system, repeatedly,
    until the schedule is exhausted or the trace completes.  Every
    leg runs a fresh :class:`DesSimulationEngine` on ``n_channels``
    channels, with the default read-retry model if ``retry`` is set;
    the defaults are the single FIFO queue.
    """
    if recovery is None:
        recovery = RecoveryConfig()
    records = list(records)
    if not records:
        raise ConfigurationError("empty trace")

    manager = RecoveryManager(recovery, config.ssd)
    injector = None
    if fault_config is not None and fault_config.enabled:
        injector = FaultInjector(fault_config)
    system = build_system(
        system_name, config, fault_injector=injector, recovery=manager
    )
    schedule = SpoSchedule(power)

    run = CrashRunResult(
        system_name=system_name, workload_name=workload_name, power=power
    )
    origin = 0.0
    remaining = records
    first = True
    while remaining:
        crash_us = schedule.next_crash_after(origin)
        if registry is not None and not first:
            # Every leg registers fresh response histograms under the
            # same names; the resumed leg's registration supersedes the
            # crashed one's (counters and gauges accumulate normally).
            registry.deregister("sim.read.response_us")
            registry.deregister("sim.write.response_us")
        engine = DesSimulationEngine(
            system,
            warmup_fraction=warmup_fraction if first else 0.0,
            n_channels=n_channels,
            retry_model=ReadRetryModel() if retry else None,
            observers=observe(registry=registry, recorder=recorder),
        )
        result = engine.run(remaining, workload_name, crash_us=crash_us)
        if not result.crashed:
            run.cycles.append(CrashCycle(result=result))
            break
        outcome = recover(
            system,
            result.crash_us,
            fault_config=fault_config,
            system_name=system_name,
        )
        run.cycles.append(CrashCycle(result=result, outcome=outcome))
        if registry is not None:
            outcome.report.publish(registry)
        if recorder is not None:
            # The monitor's SPO rule watches this series: one event
            # per cut, binned at the crash instant — nudged into the
            # first still-open window when the crashed leg's flush has
            # already closed the window containing the cut (closed
            # windows are final by the recorder contract).
            open_edge = (
                recorder.origin_us
                + recorder.closed_through * recorder.window_us
            )
            recorder.add(
                "ftl.recovery.events", max(result.crash_us, open_edge)
            )
        if not resume:
            break
        system = outcome.system
        origin = result.crash_us
        remaining = [
            r for r in remaining if r.timestamp_us >= result.crash_us
        ]
        first = False
    run.final_system = system
    return run
