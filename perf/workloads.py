"""The benchmark's four workloads, driven only through public ``repro`` APIs.

Each workload has three steps, which :mod:`run` times separately:

* ``setup(seed)`` — everything a run needs before its first repetition:
  input generation from the seed, the warmed LevelAdjust BER/levels
  memo and one storage-system build (or, for ``ecc-oracle``, the code
  and decoder construction).  It is the ``setup_s`` metric.
* ``prepare()`` — untimed per-repetition construction (a freshly built
  system and engine), returning the callable that does the timed work.
* ``outcome(raw)`` — untimed checks and simulated metrics of one
  repetition's raw result.

The same seed gives byte-identical simulated outputs on every
repetition; :mod:`run` checks that through :attr:`Outcome.fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.calibration import calibrated_analyzer
from repro.baselines import SystemConfig, build_system
from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan
from repro.ecc.bch import BchCode
from repro.ecc.ldpc import (
    LdpcCode,
    MinSumDecoder,
    NandReadChannel,
    ReadLatencyModel,
    SensingLevelPolicy,
)
from repro.errors import DecodingFailure
from repro.ftl import SsdConfig
from repro.serve import ServeEngine, build_artifact, dump_artifact, parse_mix, slo
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel
from repro.traces import make_workload

# The ``repro simulate`` DES configuration every trace workload shares.
N_BLOCKS = 256
PAGES_PER_BLOCK = 64
INITIAL_PE = 6000.0
BUFFER_PAGES = 512
WARMUP_FRACTION = 0.25
N_CHANNELS = 4
RETRY_SEED = 2015

#: P/E counts the warmed memo covers: the drive's initial wear and the
#: next bucket up, which GC-heavy runs reach.
WARM_PE = (6000.0, 6500.0)

# ecc-oracle: the Table 4 grid, and frames decoded per grid point.
GRID_MODES = ("normal", "reduced")
GRID_PE = (2000.0, 4000.0, 6000.0)
GRID_AGE_HOURS = (24.0, 168.0, 720.0)
LDPC_FRAMES = 20
BCH_FRAMES = 4
LDPC_CODE_SEED = 2015
# t = 30 keeps the chance of a frame with more than t errors below 1e-9
# at the grid's highest BER (1e-2 over 807 bits): every frame is
# correctable, so a failed frame is a decoder bug, not bad luck.
BCH_M, BCH_T, BCH_K = 10, 30, 512

#: Per-layer ratio metrics every workload reports (0 where the layer
#: does no work).
RATIOS = (
    "core.level_adjust.cache_hit_rate",
    "baselines.buffer_hit_rate",
    "ftl.write_amp",
    "ftl.erases_per_kreq",
    "sim.events_per_request",
    "sim.retry.mean_rounds",
    "ecc.ldpc.mean_iterations",
    "ecc.ldpc.success_rate",
    "ecc.bch.success_rate",
    "serve.reject_rate",
)


@dataclass
class Outcome:
    """Checked result of one repetition.

    ``report`` holds simulated numbers printed and saved next to the
    metrics (tail percentiles with their sample counts); ``errors``
    lists failed output checks.
    """

    ops: int
    failed: int
    fingerprint: str
    read_mean_us: float
    report: dict[str, float]
    ratios: dict[str, float]
    errors: list[str] = field(default_factory=list)


def digest(value: Any) -> str:
    """Stable hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ratios(values: dict[str, float]) -> dict[str, float]:
    """The full ratio table, zero for every layer not given."""
    unknown = set(values) - set(RATIOS)
    if unknown:
        raise KeyError(f"unknown ratio metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in RATIOS}


def hotness_window(n_requests: int) -> int:
    """``repro simulate``'s AccessEval window for a run of this length."""
    return max(64, min(4096, n_requests // 8))


def ssd_config() -> SsdConfig:
    return SsdConfig(
        n_blocks=N_BLOCKS,
        pages_per_block=PAGES_PER_BLOCK,
        initial_pe_cycles=INITIAL_PE,
    )


def warmed_policy() -> LevelAdjustPolicy:
    """A LevelAdjust policy whose BER/levels memo is filled for every
    (mode, P/E, age) cell the trace workloads read."""
    policy = LevelAdjustPolicy()
    for mode in (CellMode.NORMAL, CellMode.REDUCED):
        for pe in WARM_PE:
            for age in policy.age_grid:
                policy.extra_levels(mode, pe, age)
    return policy


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def device_ratios(system, sim, n_requests: int) -> dict[str, float]:
    """Ratios the FTL, core and engine counters of one run give."""
    stats = system.ssd.stats
    reads = stats.buffer_hits + stats.host_read_pages
    return {
        "core.level_adjust.cache_hit_rate": stats.ber_cache_hit_rate(),
        "baselines.buffer_hit_rate": stats.buffer_hits / reads if reads else 0.0,
        "ftl.write_amp": stats.write_amplification(),
        "ftl.erases_per_kreq": 1000.0 * stats.erase_blocks / n_requests,
        "sim.events_per_request": sim.wall_events / max(sim.wall_requests, 1),
        "sim.retry.mean_rounds": sim.mean_retry_rounds(),
    }


class TraceReplay:
    """One paper trace replayed open-loop (in virtual time) through the
    DES engine on one storage system."""

    def __init__(self, trace: str, system: str, n_requests: int):
        self.trace = trace
        self.system = system
        self.n_requests = n_requests

    def setup(self, seed: int) -> None:
        ssd = ssd_config()
        workload = make_workload(self.trace, ssd.logical_pages)
        self.records = workload.generate(self.n_requests, seed=seed)
        self.config = SystemConfig(
            ssd=ssd,
            footprint_pages=workload.footprint_pages,
            buffer_pages=BUFFER_PAGES,
            hotness_window=hotness_window(self.n_requests),
        )
        self.policy = warmed_policy()
        # Set-up includes one system build (the drive prefill).
        build_system(self.system, self.config, level_adjust=self.policy)

    def prepare(self) -> Callable[[], Any]:
        system = build_system(self.system, self.config, level_adjust=self.policy)
        engine = DesSimulationEngine(
            system,
            warmup_fraction=WARMUP_FRACTION,
            n_channels=N_CHANNELS,
            retry_model=ReadRetryModel(ReadRetryConfig(seed=RETRY_SEED)),
        )
        return lambda: (system, engine.run(self.records, self.trace))

    def outcome(self, raw) -> Outcome:
        system, result = raw
        reads = np.asarray(result.read_responses_us)
        stats = system.ssd.stats
        errors = []
        if not result.exact_samples:
            errors.append("response samples were capped; tails are estimates")
        return Outcome(
            ops=len(self.records),
            failed=len(self.records) - result.wall_requests
            + result.uncorrectable_reads,
            fingerprint=digest(result.summary()),
            read_mean_us=result.mean_read_response_us(),
            report={
                "read_p99_us": percentile(reads, 99),
                "read_p999_us": percentile(reads, 99.9),
                "recorded_reads": int(reads.size),
                "write_amp": stats.write_amplification(),
                "erases": stats.erase_blocks,
                "mean_extra_levels": stats.mean_extra_levels(),
            },
            ratios=ratios(device_ratios(system, result, len(self.records))),
            errors=errors,
        )


class NoisyNeighbor:
    """``repro serve``: three 1x fin-2 tenants and one 10x neighbour
    under weighted-fair queueing, then per-tenant latency blame."""

    MIX = "fin-2:3,fin-2:1:10"
    SCHEDULER = "wfq"
    SLO_US = 2000.0
    SQ_DEPTH = 64

    def __init__(self, requests_per_tenant: int):
        self.requests_per_tenant = requests_per_tenant

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.specs = parse_mix(
            self.MIX,
            n_requests=self.requests_per_tenant,
            slo_us=self.SLO_US,
            sq_depth=self.SQ_DEPTH,
        )
        ssd = ssd_config()
        self.config = SystemConfig(
            ssd=ssd,
            # Tenants spread their hot sets over the whole drive.
            footprint_pages=ssd.logical_pages,
            buffer_pages=BUFFER_PAGES,
            hotness_window=hotness_window(self.requests_per_tenant),
        )
        self.policy = warmed_policy()
        # Spawns the tenant streams (the inputs) and builds one system.
        self._engine()

    def _engine(self) -> ServeEngine:
        system = build_system("flexlevel", self.config, level_adjust=self.policy)
        return ServeEngine(
            system,
            self.specs,
            seed=self.seed,
            scheduler=self.SCHEDULER,
            n_channels=N_CHANNELS,
        )

    def prepare(self) -> Callable[[], Any]:
        engine = self._engine()

        def go():
            result = engine.run()
            return engine.system, result, slo.per_tenant_reports(result.tracer.spans)

        return go

    def outcome(self, raw) -> Outcome:
        system, result, reports = raw
        fleet = result.fleet_summary()
        errors = []
        if fleet["submitted"] != (
            fleet["completed"] + fleet["rejected"] + fleet["aborted"]
        ):
            errors.append(f"serve conservation broken: {fleet}")
        for tenant, report in reports.items():
            for band, body in report.to_dict()["bands"].items():
                total = sum(body["blame_fraction"].values())
                if body["n_requests"] and abs(total - 1.0) > 1e-9:
                    errors.append(f"{tenant} {band} blame sums to {total!r}")
        victims = {spec.name for spec in self.specs if spec.rate_x == 1.0}
        durations: dict[str, list[float]] = {name: [] for name in victims}
        for span in result.tracer.spans:
            tenant = span.attrs.get("tenant")
            if tenant in durations:
                durations[tenant].append(span.duration_us)
        victim_p99 = max(
            percentile(np.asarray(values), 99) for values in durations.values()
        )
        return Outcome(
            ops=fleet["submitted"],
            failed=fleet["submitted"] - fleet["completed"],
            fingerprint=digest(dump_artifact(build_artifact(result, reports))),
            read_mean_us=result.sim.mean_read_response_us(),
            report={
                "victim_p99_us": victim_p99,
                "victim_samples": min(len(v) for v in durations.values()),
                "fleet_p99_us": fleet["p99_response_us"],
                "rejected": fleet["rejected"],
                "slo_violation_rate": fleet["slo_violation_rate"],
            },
            ratios=ratios(
                {
                    **device_ratios(system, result.sim, fleet["submitted"]),
                    "serve.reject_rate": fleet["rejected"] / fleet["submitted"],
                }
            ),
            errors=errors,
        )


@dataclass
class GridPoint:
    """One Table 4 grid point's decoded frames: ``(sent, decoded or
    None, iterations)`` for LDPC, ``(message, decoded or None)`` for BCH."""

    mode: str
    pe: float
    age_hours: float
    ber: float
    levels: int
    ldpc: list[tuple[np.ndarray, np.ndarray | None, int]]
    bch: list[tuple[np.ndarray, np.ndarray | None]]


class EccOracle:
    """The bit-accurate read path over the Table 4 grid: cold BER, the
    sensing ladder, then real LDPC and BCH frames at that BER."""

    def __init__(self, ldpc_frames: int = LDPC_FRAMES, bch_frames: int = BCH_FRAMES):
        self.ldpc_frames = ldpc_frames
        self.bch_frames = bch_frames

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.code = LdpcCode.regular(n=512, wc=3, wr=8, seed=LDPC_CODE_SEED)
        self.decoder = MinSumDecoder(self.code)
        self.bch = BchCode(m=BCH_M, t=BCH_T, shortened_k=BCH_K)
        self.sensing = SensingLevelPolicy()
        self.latency = ReadLatencyModel()

    def prepare(self) -> Callable[[], Any]:
        return self._decode_grid

    def _decode_grid(self) -> list[GridPoint]:
        rng = np.random.default_rng(self.seed)
        # Fresh analyzers every repetition: each BER evaluation is cold.
        analyzers = {
            "normal": calibrated_analyzer(normal_mlc_plan()),
            "reduced": calibrated_analyzer(
                reduced_plan("nunma3"), coding=ReduceCodeCoding()
            ),
        }
        code, decoder, bch = self.code, self.decoder, self.bch
        points = []
        for mode in GRID_MODES:
            for pe in GRID_PE:
                for age in GRID_AGE_HOURS:
                    ber = analyzers[mode].bit_error_rate(
                        pe_cycles=pe, t_hours=age, include_c2c=False
                    ).total
                    levels = self.sensing.required_levels(ber)
                    channel = NandReadChannel(ber, extra_levels=levels)
                    ldpc = []
                    for _ in range(self.ldpc_frames):
                        sent = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
                        llrs = channel.llrs_for(channel.transmit(sent, rng))
                        try:
                            result = decoder.decode(llrs)
                            ldpc.append((sent, result.codeword, result.iterations))
                        except DecodingFailure:
                            ldpc.append((sent, None, decoder.max_iterations))
                    frames = []
                    for _ in range(self.bch_frames):
                        message = rng.integers(
                            0, 2, bch.message_length, dtype=np.uint8
                        )
                        flips = rng.random(bch.codeword_length) < ber
                        try:
                            frames.append((message, bch.decode(bch.encode(message) ^ flips)))
                        except DecodingFailure:
                            frames.append((message, None))
                    points.append(GridPoint(mode, pe, age, ber, levels, ldpc, frames))
        return points

    def frame_latency_us(self, levels: int, iterations: int) -> float:
        """A frame's read latency under the repo's latency model, with
        the decode component priced per measured min-sum iteration."""
        sense, transfer, _ = self.latency.round_components_us(levels)
        per_iteration = self.latency.decode_us / self.latency.base_decode_iterations
        return sense + transfer + per_iteration * iterations

    def outcome(self, points: list[GridPoint]) -> Outcome:
        errors = []
        ldpc_ok = bch_ok = 0
        iterations, latencies = [], []
        hasher = hashlib.sha256()
        for p in points:
            if p.mode == "reduced" and p.levels:
                errors.append(
                    f"reduced cells at {p.pe:g} P/E, {p.age_hours:g} h need "
                    f"{p.levels} extra levels; Table 5 says 0"
                )
            for sent, decoded, n_iter in p.ldpc:
                ldpc_ok += decoded is not None and np.array_equal(decoded, sent)
                iterations.append(n_iter)
                latencies.append(self.frame_latency_us(p.levels, n_iter))
                hasher.update(b"-" if decoded is None else decoded.tobytes())
            for message, decoded in p.bch:
                bch_ok += decoded is not None and np.array_equal(decoded, message)
                hasher.update(b"-" if decoded is None else decoded.tobytes())
        n_ldpc = sum(len(p.ldpc) for p in points)
        n_bch = sum(len(p.bch) for p in points)
        grid = [(p.mode, p.pe, p.age_hours, p.ber, p.levels) for p in points]
        return Outcome(
            ops=n_ldpc + n_bch,
            failed=(n_ldpc - ldpc_ok) + (n_bch - bch_ok),
            fingerprint=digest([grid, iterations, hasher.hexdigest()]),
            read_mean_us=float(np.mean(latencies)),
            report={
                "read_p99_us": percentile(np.asarray(latencies), 99),
                "ldpc_frames": n_ldpc,
                "bch_frames": n_bch,
                "max_iterations": max(iterations),
            },
            ratios=ratios(
                {
                    "ecc.ldpc.mean_iterations": float(np.mean(iterations)),
                    "ecc.ldpc.success_rate": ldpc_ok / n_ldpc,
                    "ecc.bch.success_rate": bch_ok / n_bch,
                }
            ),
            errors=errors,
        )


#: Workload factories by the names BENCHMARK.json declares.
WORKLOADS: dict[str, Callable[[], Any]] = {
    "sim-read-hot": lambda: TraceReplay("web-1", "flexlevel", 20_000),
    "sim-write-gc": lambda: TraceReplay("prj-1", "leveladjust-only", 25_000),
    "serve-noisy-neighbor": lambda: NoisyNeighbor(4_000),
    "ecc-oracle": lambda: EccOracle(),
}
