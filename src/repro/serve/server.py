"""The multi-tenant serving front-end over the DES engine.

:class:`QueuePairSource` is the live ingress the DES engine's
``run_source`` loop was built for: it owns every tenant's queue pair,
admission bucket and arrival stream, and each time the controller has a
free request slot it answers *which SQ head goes next and when* — the
QoS scheduler's decision, possibly future-dated to the moment the next
submission becomes eligible.

The flow of one request:

1. The tenant's seeded stream produces a submission at ``submit_us``
   (open loop: its own Poisson clock; closed loop: think time after its
   previous completion).
2. Admission control stamps it ``eligible_us`` (token-bucket shaping)
   and it enters the tenant's bounded SQ — or is rejected and counted
   if the SQ is full.
3. When a controller slot frees, the QoS scheduler picks one eligible
   SQ head; the request dispatches into the device simulation with
   ``t0 = submit_us``, so SQ wait shows up in the response time and in
   the ``queue_wait`` attribution cause.
4. On completion the response is posted to the tenant's CQ: SLO
   accounting, the per-tenant response histogram, and (closed loop)
   the next submission.

Back-pressure is the *dispatch window*: at most ``window`` requests may
be in flight inside the device.  Without it the controller would drain
every SQ instantly and scheduling would never matter; with it, overload
turns into SQ backlog that the scheduler — not arrival order — decides
how to serve.

Decision timing: each poll makes exactly one dispatch decision.  When
nothing is eligible *now*, the decision is made for the earliest
instant something becomes eligible; a completion landing inside that
gap releases its follow-up work at the next poll.  This one-decision
lookahead is deterministic and bounded by a single request.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.systems import StorageSystem
from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.monitor import HealthMonitor, MonitorConfig
from repro.obs.timeseries import WindowedRecorder
from repro.obs.tracing import Tracer
from repro.serve.admission import TokenBucket
from repro.serve.qos import QosScheduler, make_scheduler
from repro.serve.queues import QueuePair, SubmittedRequest
from repro.serve.tenants import TenantSpec, TenantStream, spawn_streams
from repro.sim.des.engine import DesSimulationEngine
from repro.sim.des.ingress import PendingRequest, RequestSource
from repro.sim.des.observers import AttributionObserver, observe
from repro.sim.results import DesSimulationResult, response_histogram

#: Fallback logical footprint when the system under test has none.
_DEFAULT_LOGICAL_PAGES = 65_536


class QueuePairSource(RequestSource):
    """Queue-pair ingress: SQ/CQ pairs, admission, QoS dispatch.

    Parameters
    ----------
    streams:
        One seeded :class:`~repro.serve.tenants.TenantStream` per
        tenant (``spawn_streams``).
    scheduler:
        The QoS discipline deciding which eligible SQ head a freed
        slot serves.
    window:
        Controller dispatch window — maximum requests in flight inside
        the device at once.
    admission_rate_per_s:
        Per-tenant token-bucket rate; ``None`` disables shaping.
    recorder:
        Optional windowed-telemetry sink; when set, the source emits
        per-tenant virtual-time series (``serve.tenant.t0.completions``,
        ``.slo_violations``, ``.sq_depth``) alongside the DES engine's
        device-level series.
    """

    def __init__(
        self,
        streams: list[TenantStream],
        scheduler: QosScheduler,
        window: int,
        admission_rate_per_s: float | None = None,
        recorder: WindowedRecorder | None = None,
    ):
        if not streams:
            raise ConfigurationError("queue-pair source needs tenants")
        if window < 1:
            raise ConfigurationError(f"dispatch window below 1: {window}")
        self.streams = streams
        self.scheduler = scheduler
        self.window = window
        self.recorder = recorder
        self.pairs: list[QueuePair] = [
            QueuePair.for_tenant(stream.spec) for stream in streams
        ]
        self.buckets: list[TokenBucket] = [
            TokenBucket(rate_per_s=admission_rate_per_s) for _ in streams
        ]
        self.response_hists: list[Histogram] = [
            response_histogram(f"serve.tenant.{s.spec.name}.response_us")
            for s in streams
        ]
        self._outstanding = 0
        self._emitted = 0
        self._inflight: dict[int, SubmittedRequest] = {}
        # Future submissions: (submit_us, tenant_id, seq).  Open-loop
        # tenants chain the next entry when the current one submits;
        # closed-loop tenants chain it from on_complete.
        self._submissions: list[tuple[float, int, int]] = []
        for stream in streams:
            if len(stream):
                first = stream.requests[0]
                heapq.heappush(
                    self._submissions, (first.gap_us, stream.spec.tenant_id, 0)
                )

    # --- RequestSource protocol -------------------------------------------------

    def next_request(self, now_us: float) -> PendingRequest | None:
        if self._outstanding >= self.window:
            return None
        t = now_us
        while True:
            self._drain_submissions(t)
            heads = [
                pair.sq.head
                for pair in self.pairs
                if pair.sq.head is not None and pair.sq.head.eligible_us <= t
            ]
            if heads:
                return self._dispatch(self.scheduler.select(heads, t), t)
            t_next = self._next_event_after(t)
            if t_next is None:
                return None
            t = t_next

    def on_complete(
        self, index: int, completion_us: float, response_us: float
    ) -> None:
        request = self._inflight.pop(index)
        self._outstanding -= 1
        tenant_id = request.tenant_id
        self.pairs[tenant_id].cq.post(request, completion_us, response_us)
        self.response_hists[tenant_id].observe(response_us)
        stream = self.streams[tenant_id]
        if self.recorder is not None:
            name = stream.spec.name
            self.recorder.add(f"serve.tenant.{name}.completions", completion_us)
            self.recorder.sample(
                f"serve.tenant.{name}.response_us", completion_us, response_us
            )
            if response_us > stream.spec.slo_us:
                self.recorder.add(
                    f"serve.tenant.{name}.slo_violations", completion_us
                )
        if stream.spec.closed_loop and request.seq + 1 < len(stream):
            think = stream.requests[request.seq + 1].gap_us
            heapq.heappush(
                self._submissions,
                (completion_us + think, tenant_id, request.seq + 1),
            )

    def on_abort(self, index: int) -> None:
        """A dispatched request died in flight (sudden power-off).

        The engine calls this instead of ``on_complete`` for every
        pending request when the run is cut: no CQ posting, no response
        sample, no closed-loop follow-up — the request moves to the
        tenant's ``aborted`` bucket so conservation still closes.
        """
        request = self._inflight.pop(index)
        self._outstanding -= 1
        self.pairs[request.tenant_id].sq.aborted += 1

    def abort_queued(self) -> int:
        """Drain every still-queued SQ entry into ``aborted`` buckets."""
        return sum(pair.sq.drain_aborted() for pair in self.pairs)

    @property
    def emitted(self) -> int:
        return self._emitted

    def advance_to(self, now_us: float) -> None:
        """Flush submissions due by ``now_us`` into their SQs.

        Draining is keyed purely on ``submit_us`` order, so doing it
        eagerly here (before the engine closes telemetry windows)
        instead of lazily at the next dispatch poll changes nothing —
        every entry still enters its SQ stamped with the same
        ``submit_us``, and dispatch decisions still happen at polls.
        It guarantees window-close hooks never see a submission
        arrive *behind* an already-closed window.
        """
        self._drain_submissions(now_us)

    # --- internals --------------------------------------------------------------

    def _drain_submissions(self, t: float) -> None:
        """Move every submission due by ``t`` into its tenant's SQ."""
        while self._submissions and self._submissions[0][0] <= t:
            submit_us, tenant_id, seq = heapq.heappop(self._submissions)
            stream = self.streams[tenant_id]
            spec = stream.spec
            req = stream.requests[seq]
            entry = SubmittedRequest(
                tenant_id=tenant_id,
                seq=seq,
                submit_us=submit_us,
                eligible_us=self.buckets[tenant_id].eligible_at(submit_us),
                deadline_us=submit_us + spec.slo_us,
                cost=float(req.n_pages),
                lpn=req.lpn,
                n_pages=req.n_pages,
                is_write=req.is_write,
            )
            admitted = self.pairs[tenant_id].sq.push(entry)
            if self.recorder is not None:
                if not admitted:
                    # A rejected submission burns the tenant's error
                    # budget exactly like an SLO violation — the burn
                    # rules need it as a windowed series, not just an
                    # end-of-run count.
                    self.recorder.add(
                        f"serve.tenant.{spec.name}.rejections", submit_us
                    )
                self.recorder.sample(
                    f"serve.tenant.{spec.name}.sq_depth",
                    submit_us,
                    len(self.pairs[tenant_id].sq),
                )
            # Open loop: the next submission rides the tenant's own
            # clock whether this one was admitted or rejected.
            if not spec.closed_loop and seq + 1 < len(stream):
                heapq.heappush(
                    self._submissions,
                    (
                        submit_us + stream.requests[seq + 1].gap_us,
                        tenant_id,
                        seq + 1,
                    ),
                )

    def _next_event_after(self, t: float) -> float | None:
        """The earliest future instant a head could become eligible."""
        candidates = []
        if self._submissions:
            candidates.append(self._submissions[0][0])
        for pair in self.pairs:
            head = pair.sq.head
            if head is not None and head.eligible_us > t:
                candidates.append(head.eligible_us)
        return min(candidates) if candidates else None

    def _dispatch(self, chosen: SubmittedRequest, t: float) -> PendingRequest:
        sq = self.pairs[chosen.tenant_id].sq
        assert sq.head is chosen
        sq.pop_head()
        self.scheduler.on_dispatch(chosen)
        self._outstanding += 1
        index = self._emitted
        self._emitted += 1
        self._inflight[index] = chosen
        stream = self.streams[chosen.tenant_id]
        return PendingRequest(
            record=stream.record_at(chosen.seq, t),
            index=index,
            t0_us=chosen.submit_us,
            attrs={
                "tenant": stream.spec.name,
                "tenant_id": chosen.tenant_id,
                "tseq": chosen.seq,
            },
        )

    def check_conservation(self, crashed: bool = False) -> None:
        """Every submission is accounted for once the run has drained.

        On a clean run every admitted submission must have completed
        and the ``aborted`` buckets must be empty.  On a crashed run
        (``crashed=True``, after :meth:`abort_queued`) the identity
        relaxes to ``submitted == rejected + completed + aborted`` —
        nothing is ever silently lost, it just lands in a different
        terminal bucket.
        """
        if self._outstanding or self._inflight:
            raise SimulationError(
                f"{self._outstanding} requests still in flight at teardown"
            )
        for pair in self.pairs:
            sq, cq = pair.sq, pair.cq
            if len(sq):
                raise SimulationError(
                    f"tenant {pair.spec.name} left {len(sq)} entries queued"
                )
            if not crashed and sq.aborted:
                raise SimulationError(
                    f"tenant {pair.spec.name} aborted {sq.aborted} "
                    "requests without a crash"
                )
            if sq.submitted != sq.rejected + cq.completed + sq.aborted:
                raise SimulationError(
                    f"tenant {pair.spec.name} lost submissions: "
                    f"{sq.submitted} != {sq.rejected} + {cq.completed} "
                    f"+ {sq.aborted}"
                )


@dataclass
class ServeResult:
    """One serving run: fleet rollup plus per-tenant accounting.

    ``sim`` is the underlying device-level DES result (channel
    utilization, retry tail, makespan); the serve-level view adds what
    the device cannot know — which tenant each response belonged to and
    how it fared against its SLO.
    """

    scheduler: str
    seed: int
    window: int
    admission_rate_per_s: float | None
    specs: list[TenantSpec]
    source: QueuePairSource
    sim: DesSimulationResult
    tracer: Tracer
    monitor: HealthMonitor | None = None

    fleet_hist: Histogram = field(init=False)

    def __post_init__(self) -> None:
        # The fleet distribution is the *exact* union of the per-tenant
        # histograms — identical layouts, so Histogram.merge is lossless.
        self.fleet_hist = response_histogram("serve.fleet.response_us")
        for hist in self.source.response_hists:
            self.fleet_hist.merge(hist)

    # --- per-tenant views -------------------------------------------------------

    def tenant_quantile(self, tenant_id: int, q: float) -> float:
        return self.source.response_hists[tenant_id].quantile(q)

    def tenant_summary(self, tenant_id: int) -> dict[str, Any]:
        spec = self.specs[tenant_id]
        pair = self.source.pairs[tenant_id]
        hist = self.source.response_hists[tenant_id]
        completed = pair.cq.completed
        return {
            "tenant": spec.name,
            "workload": spec.workload,
            "rate_x": spec.rate_x,
            "weight": spec.weight,
            "closed_loop": spec.closed_loop,
            "slo_us": spec.slo_us,
            "submitted": pair.sq.submitted,
            "rejected": pair.sq.rejected,
            "completed": completed,
            "aborted": pair.sq.aborted,
            "sq_depth_high_water": pair.sq.depth_high_water,
            "slo_violations": pair.cq.slo_violations,
            "slo_violation_rate": (
                pair.cq.slo_violations / completed if completed else 0.0
            ),
            "mean_response_us": hist.mean(),
            "p50_response_us": hist.quantile(50),
            "p95_response_us": hist.quantile(95),
            "p99_response_us": hist.quantile(99),
            "p999_response_us": hist.quantile(99.9),
            "max_response_us": hist.max(),
        }

    def fleet_summary(self) -> dict[str, Any]:
        submitted = sum(p.sq.submitted for p in self.source.pairs)
        rejected = sum(p.sq.rejected for p in self.source.pairs)
        completed = sum(p.cq.completed for p in self.source.pairs)
        aborted = sum(p.sq.aborted for p in self.source.pairs)
        violations = sum(p.cq.slo_violations for p in self.source.pairs)
        return {
            "n_tenants": len(self.specs),
            "scheduler": self.scheduler,
            "crashed": self.sim.crashed,
            "submitted": submitted,
            "rejected": rejected,
            "completed": completed,
            "aborted": aborted,
            "slo_violations": violations,
            "slo_violation_rate": violations / completed if completed else 0.0,
            "makespan_us": self.sim.makespan_us,
            "mean_response_us": self.fleet_hist.mean(),
            "p50_response_us": self.fleet_hist.quantile(50),
            "p95_response_us": self.fleet_hist.quantile(95),
            "p99_response_us": self.fleet_hist.quantile(99),
            "p999_response_us": self.fleet_hist.quantile(99.9),
            "max_response_us": self.fleet_hist.max(),
        }


class ServeEngine:
    """Wires tenants, queue pairs, QoS and the DES device together.

    Parameters
    ----------
    system:
        Storage system under test (:func:`repro.baselines.build_system`).
    specs:
        The tenant population (:func:`repro.serve.tenants.parse_mix`).
    seed:
        Root seed; each tenant stream spawns an independent child.
    scheduler:
        QoS discipline name (``fifo`` / ``wfq`` / ``edf``).
    n_channels:
        Device channels (also the default basis of the window).
    window:
        Controller dispatch window; defaults to ``2 * n_channels``.
    admission_rate_per_s:
        Optional per-tenant token-bucket admission rate.
    registry / recorder:
        Optional observability sinks, passed through to the DES engine;
        the serve layer adds per-tenant counters to the registry.
    """

    def __init__(
        self,
        system: StorageSystem,
        specs: list[TenantSpec],
        seed: int = 0,
        scheduler: str = "fifo",
        n_channels: int = 4,
        window: int | None = None,
        admission_rate_per_s: float | None = None,
        registry: MetricsRegistry | None = None,
        recorder: WindowedRecorder | None = None,
        monitor_config: MonitorConfig | None = None,
    ):
        if monitor_config is not None and recorder is None:
            raise ConfigurationError(
                "online monitoring requires a windowed recorder"
            )
        # Checked before the window derives from it, so a bad channel
        # count is reported as such.
        if n_channels < 1:
            raise ConfigurationError(f"need at least one channel: {n_channels}")
        if window is None:
            window = 2 * n_channels
        self.system = system
        self.specs = specs
        self.seed = seed
        self.scheduler_name = scheduler
        self.n_channels = n_channels
        self.window = window
        self.admission_rate_per_s = admission_rate_per_s
        self.registry = registry
        self.recorder = recorder
        self.monitor_config = monitor_config
        logical_pages = system.config.footprint_pages or _DEFAULT_LOGICAL_PAGES
        self.streams = spawn_streams(specs, seed, logical_pages)

    def run(self, crash_us: float | None = None) -> ServeResult:
        source = QueuePairSource(
            self.streams,
            make_scheduler(self.scheduler_name, self.specs),
            self.window,
            admission_rate_per_s=self.admission_rate_per_s,
            recorder=self.recorder,
        )
        # Retain every request so per-tenant blame tables are complete
        # (fractions then sum to exactly 1.0 per band, per tenant).  Each
        # is attributed when it is dispatched and kept as a childless
        # root span that carries its attribution, not as a span tree.
        tracer = Tracer(sample_every=1, keep_slowest=0)
        monitor = None
        if self.monitor_config is not None:
            monitor = HealthMonitor(
                self.recorder,
                registry=self.registry,
                tracer=tracer,
                tenants=[spec.name for spec in self.specs],
                config=self.monitor_config,
            ).attach()
        engine = DesSimulationEngine(
            self.system,
            warmup_fraction=0.0,
            n_channels=self.n_channels,
            observers=(
                *observe(registry=self.registry, recorder=self.recorder),
                AttributionObserver(tracer),
            ),
        )
        sim = engine.run_source(
            source, workload_name="multi_tenant", crash_us=crash_us
        )
        if sim.crashed:
            # Graceful drain after the cut: everything still queued in
            # an SQ moves to the aborted bucket so the crashed-mode
            # conservation identity (submitted == rejected + completed
            # + aborted) closes exactly.
            source.abort_queued()
        source.check_conservation(crashed=sim.crashed)
        result = ServeResult(
            scheduler=self.scheduler_name,
            seed=self.seed,
            window=self.window,
            admission_rate_per_s=self.admission_rate_per_s,
            specs=self.specs,
            source=source,
            sim=sim,
            tracer=tracer,
            monitor=monitor,
        )
        if self.registry is not None:
            self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: ServeResult) -> None:
        registry = self.registry
        for spec, pair, hist in zip(
            self.specs, result.source.pairs, result.source.response_hists
        ):
            prefix = f"serve.tenant.{spec.name}"
            registry.counter(f"{prefix}.submitted").inc(pair.sq.submitted)
            registry.counter(f"{prefix}.rejected").inc(pair.sq.rejected)
            registry.counter(f"{prefix}.completed").inc(pair.cq.completed)
            registry.counter(f"{prefix}.slo_violations").inc(
                pair.cq.slo_violations
            )
            registry.register(f"{prefix}.response_us", hist)
        registry.register("serve.fleet.response_us", result.fleet_hist)
