"""Tenant populations and their seeded arrival streams.

A *tenant* is one simulated client of the device: a workload
personality (one of the paper presets in
:mod:`repro.traces.workloads`), an arrival discipline (open-loop
Poisson or closed-loop think-time), a rate multiplier, a weight for
fair-share scheduling, an SLO, and a bounded submission-queue depth.

Streams are seeded the way :class:`repro.faults.FaultInjector` seeds
its four fault streams: one root :class:`numpy.random.SeedSequence`
spawns an independent child per tenant, so

* the same ``(seed, mix)`` reproduces every tenant's request sequence
  byte for byte,
* adding or re-ordering *other* tenants never perturbs a tenant's own
  stream (each child is keyed by the tenant's index), and
* none of it shares state with the fault injector's or the read-retry
  model's RNGs (``tests/serve/`` pins the independence).

Rates are normalized for fleet scale: a preset's published
``mean_interarrival_us`` describes the *aggregate* trace, so one
tenant of `n` issues at ``n / rate_x`` times that interval — a mix of
100 plain tenants offers roughly the preset's aggregate load, and a
``rate_x=10`` noisy neighbor offers ten tenants' worth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.schema import TraceRecord
from repro.traces.synthetic import SyntheticWorkload, check_seed
from repro.traces.workloads import PAPER_WORKLOADS, workload_names

#: Default per-tenant submission-queue depth (NVMe queues are typically
#: a few hundred to a few thousand entries).
DEFAULT_SQ_DEPTH = 256

#: Default per-tenant SLO on request response time.
DEFAULT_SLO_US = 2_000.0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and traffic contract.

    Attributes
    ----------
    tenant_id:
        Dense index in the mix (also the RNG spawn key).
    workload:
        Paper workload preset the arrival stream is built on.
    n_requests:
        Requests this tenant submits over the run.
    rate_x:
        Arrival-rate multiplier (10.0 = the noisy neighbor issuing at
        ten times its fair rate).  Open loop only.
    weight:
        Fair-share weight for the weighted-fair scheduler.
    slo_us:
        Response-time SLO; completions above it count as violations.
    sq_depth:
        Submission-queue bound; submissions that find the queue full
        are rejected (counted, never silently dropped).
    closed_loop:
        Closed-loop tenants wait for each completion, think for an
        exponential time, then submit the next request; open-loop
        tenants submit on their own Poisson clock regardless.
    think_us:
        Mean think time of a closed-loop tenant.
    """

    tenant_id: int
    workload: str
    n_requests: int
    rate_x: float = 1.0
    weight: float = 1.0
    slo_us: float = DEFAULT_SLO_US
    sq_depth: int = DEFAULT_SQ_DEPTH
    closed_loop: bool = False
    think_us: float = 1_000.0

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ConfigurationError(f"negative tenant id: {self.tenant_id}")
        if self.workload not in PAPER_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"choose from {workload_names()}"
            )
        if self.n_requests <= 0:
            raise ConfigurationError("tenant needs at least one request")
        if self.rate_x <= 0:
            raise ConfigurationError(f"non-positive rate_x: {self.rate_x}")
        if self.weight <= 0:
            raise ConfigurationError(f"non-positive weight: {self.weight}")
        if self.slo_us <= 0:
            raise ConfigurationError(f"non-positive slo_us: {self.slo_us}")
        if self.sq_depth < 1:
            raise ConfigurationError(f"sq_depth below 1: {self.sq_depth}")
        if self.think_us < 0:
            raise ConfigurationError(f"negative think_us: {self.think_us}")

    @property
    def name(self) -> str:
        """Metric-grammar-safe tenant label (``t0``, ``t1``, ...)."""
        return f"t{self.tenant_id}"


def parse_mix(
    mix: str,
    n_requests: int,
    slo_us: float = DEFAULT_SLO_US,
    sq_depth: int = DEFAULT_SQ_DEPTH,
    n_tenants: int | None = None,
) -> list[TenantSpec]:
    """Parse a tenant-mix string into a tenant population.

    Grammar: comma-separated groups ``preset[:count[:rate_x]][@closed]``
    — e.g. ``"fin-2:7,fin-2:1:10"`` is seven plain fin-2 tenants plus
    one noisy neighbor at ten times the rate, and ``"web-1:4@closed"``
    is four closed-loop web tenants.  ``n_tenants`` rescales the group
    counts proportionally (each group keeps at least one tenant) so
    the same mix shape can be run at 8 or 800 tenants.
    """
    if not mix.strip():
        raise ConfigurationError("empty tenant mix")
    groups: list[tuple[str, int, float, bool]] = []
    for chunk in mix.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigurationError(f"empty group in tenant mix {mix!r}")
        closed = chunk.endswith("@closed")
        if closed:
            chunk = chunk[: -len("@closed")]
        parts = chunk.split(":")
        if len(parts) > 3:
            raise ConfigurationError(
                f"tenant-mix group {chunk!r} is not preset[:count[:rate_x]]"
            )
        preset = parts[0]
        if preset not in PAPER_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {preset!r} in tenant mix; "
                f"choose from {workload_names()}"
            )
        try:
            count = int(parts[1]) if len(parts) > 1 else 1
            rate_x = float(parts[2]) if len(parts) > 2 else 1.0
        except ValueError as exc:
            raise ConfigurationError(
                f"bad tenant-mix group {chunk!r}: {exc}"
            ) from None
        if count < 1:
            raise ConfigurationError(f"group {chunk!r} count below 1")
        groups.append((preset, count, rate_x, closed))

    if n_tenants is not None:
        total = sum(count for _, count, _, _ in groups)
        if n_tenants < len(groups):
            raise ConfigurationError(
                f"--tenants {n_tenants} below the {len(groups)} mix groups"
            )
        scaled = [
            max(1, round(count * n_tenants / total)) for _, count, _, _ in groups
        ]
        # Rounding drift lands on the largest group so totals match.
        drift = n_tenants - sum(scaled)
        scaled[scaled.index(max(scaled))] += drift
        groups = [
            (preset, new_count, rate_x, closed)
            for (preset, _, rate_x, closed), new_count in zip(groups, scaled)
        ]

    specs: list[TenantSpec] = []
    for preset, count, rate_x, closed in groups:
        for _ in range(count):
            specs.append(
                TenantSpec(
                    tenant_id=len(specs),
                    workload=preset,
                    n_requests=n_requests,
                    rate_x=rate_x,
                    slo_us=slo_us,
                    sq_depth=sq_depth,
                    closed_loop=closed,
                )
            )
    return specs


@dataclass(frozen=True)
class TenantRequest:
    """One submission a tenant stream produced.

    ``gap_us`` is the stream's own spacing: the interarrival time
    since the tenant's previous *submission* (open loop) or the think
    time after the previous *completion* (closed loop).
    """

    tenant_id: int
    seq: int
    gap_us: float
    lpn: int
    n_pages: int
    is_write: bool


class TenantStream:
    """One tenant's pre-generated, seeded request sequence.

    The payload (targets, sizes, read/write) comes from the tenant's
    workload preset via :class:`~repro.traces.synthetic.SyntheticWorkload`
    — same Zipf machinery as the trace benchmarks — addressed into a
    tenant-private base offset so tenants touch distinct hot sets.
    Timing is separated from payload: the stream exposes *gaps*, and
    the serving engine turns them into submissions (open loop) or
    post-completion think times (closed loop).
    """

    def __init__(
        self,
        spec: TenantSpec,
        seed_seq: np.random.SeedSequence,
        logical_pages: int,
        n_tenants: int,
    ):
        if logical_pages <= 0:
            raise ConfigurationError("logical_pages must be positive")
        if n_tenants < 1:
            raise ConfigurationError("n_tenants must be at least 1")
        self.spec = spec
        preset = PAPER_WORKLOADS[spec.workload]
        footprint = max(4, int(preset.footprint_fraction * logical_pages))
        # One tenant of n offers 1/n of the preset's aggregate rate,
        # scaled back up by its own rate multiplier.
        if spec.closed_loop:
            mean_gap = max(spec.think_us, 1e-6)
        else:
            mean_gap = preset.mean_interarrival_us * n_tenants / spec.rate_x
        workload = SyntheticWorkload(
            name=preset.name,
            footprint_pages=min(footprint, logical_pages),
            read_fraction=preset.read_fraction,
            read_zipf_s=preset.read_zipf_s,
            write_zipf_s=preset.write_zipf_s,
            mean_request_pages=preset.mean_request_pages,
            sequential_fraction=preset.sequential_fraction,
            mean_interarrival_us=mean_gap,
        )
        # Spread tenant hot sets across the logical space; the engine
        # wraps LPNs into the system footprint.
        self.base_lpn = (
            spec.tenant_id * max(1, logical_pages // n_tenants)
        ) % logical_pages
        records = workload.generate(spec.n_requests, seed=seed_seq)
        self.requests: tuple[TenantRequest, ...] = tuple(
            TenantRequest(
                tenant_id=spec.tenant_id,
                seq=i,
                gap_us=float(
                    record.timestamp_us
                    - (records[i - 1].timestamp_us if i else 0.0)
                ),
                lpn=(self.base_lpn + record.lpn) % logical_pages,
                n_pages=record.n_pages,
                is_write=record.is_write,
            )
            for i, record in enumerate(records)
        )

    def __len__(self) -> int:
        return len(self.requests)

    def record_at(self, seq: int, dispatch_us: float) -> TraceRecord:
        """The ``seq``-th request as a trace record dispatched now."""
        req = self.requests[seq]
        return TraceRecord(
            timestamp_us=dispatch_us,
            lpn=req.lpn,
            n_pages=req.n_pages,
            is_write=req.is_write,
        )

    def signature(self) -> tuple[tuple[int, float, int, int, bool], ...]:
        """Hashable byte-equality key over the full request sequence."""
        return tuple(
            (r.seq, r.gap_us, r.lpn, r.n_pages, r.is_write)
            for r in self.requests
        )


def spawn_streams(
    specs: list[TenantSpec], seed: int, logical_pages: int
) -> list[TenantStream]:
    """Build every tenant's stream from independent spawned RNG streams."""
    if not specs:
        raise ConfigurationError("no tenants in the mix")
    ids = [spec.tenant_id for spec in specs]
    if ids != list(range(len(specs))):
        specs = [
            replace(spec, tenant_id=i) for i, spec in enumerate(specs)
        ]
    children = np.random.SeedSequence(check_seed(seed)).spawn(len(specs))
    return [
        TenantStream(spec, child, logical_pages, len(specs))
        for spec, child in zip(specs, children)
    ]
