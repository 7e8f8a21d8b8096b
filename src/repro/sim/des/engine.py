"""The discrete-event multi-channel trace simulator.

The engine models the controller the way hardware does it: a dispatcher
splits each host request into page operations, routes every operation
to the channel its *physical* page lives on
(:meth:`repro.ftl.ssd.Ssd.channel_of`), and each channel serves its own
FIFO queue while background GC fills the idle gaps per channel.  Reads
run through a stochastic read-retry model — hard-decision sensing
first, escalating rounds on decode failure — so the response-time
distribution grows the heavy tail a mean-service model cannot
represent.  That is the quantity the paper's Fig. 6 story is really
about, and why the result carries p50/p95/p99 and per-channel
utilization.

Observability: pass a :class:`repro.obs.Tracer` to record sampled
per-request span trees (queue wait, GC stalls, each sensing round with
its sense/transfer/LDPC-decode split) and a
:class:`repro.obs.MetricsRegistry` to collect the run's counters and
streaming histograms under one namespace — so a slow p99 read can be
attributed to queueing vs. sensing rounds vs. decoder time instead of
being one opaque number.

Reduction property: with ``n_channels=1`` and ``retry_model=None`` the
engine is a single FIFO queue with granule-quantized background work,
request for request (same starts, same stalls, same service times) the
reference model in ``tests/sim/reference.py``; the DES test suite
asserts the equivalence exactly, on fixed and random traces.

Ingress: the event loop itself is trace-agnostic — it pulls
:class:`~repro.sim.des.ingress.PendingRequest` objects from a
:class:`~repro.sim.des.ingress.RequestSource` and reports completions
back (:meth:`run_source`).  :meth:`run` wraps a fixed record list in a
:class:`~repro.sim.des.ingress.TraceSource`; the multi-tenant serving
front-end (:mod:`repro.serve`) plugs in a live queue-pair source whose
arrival process depends on completions and QoS scheduling decisions.

Events: the heap carries only what changes engine state — one
``ARRIVAL`` and one ``REQUEST_COMPLETE`` per request.  A request's page
operations are admitted, serviced and committed onto their channels'
frontiers when it is dispatched, and background GC drains into idle
gaps at admission, so neither needs an event of its own; the request
completes when the last of its channels' frontiers is reached.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterable

from repro.baselines.systems import ReadServiceBreakdown, StorageSystem
from repro.errors import ConfigurationError, SimulationError
from repro.obs.channel import ChannelTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EventLoopProfiler, record_loop
from repro.obs.timeseries import WindowedRecorder
from repro.obs.tracing import Span, Tracer
from repro.sim.des.events import Event, EventHeap, EventKind
from repro.sim.des.ingress import PendingRequest, RequestSource, TraceSource
from repro.sim.des.retry import ReadRetryModel
from repro.sim.des.scheduler import ChannelScheduler
from repro.sim.results import DesSimulationResult
from repro.traces.schema import TraceRecord

_ARRIVAL = EventKind.ARRIVAL
_REQUEST_COMPLETE = EventKind.REQUEST_COMPLETE

#: Sentinel for the default (enabled, default-config) retry model.
_DEFAULT_RETRY = object()

#: Profiler section key per event kind (precomputed: the loop is hot).
_EVENT_KEYS = {
    EventKind.ARRIVAL: "event.arrival",
    EventKind.REQUEST_COMPLETE: "event.request_complete",
}


class DesSimulationEngine:
    """Replays traces through an event heap and per-channel queues.

    Parameters
    ----------
    system:
        The storage system under test.
    warmup_fraction:
        Leading fraction of requests whose response times are not
        recorded (their work still executes).
    n_channels:
        Independent flash channels, each with its own request queue and
        background-GC backlog.
    gc_granule_us:
        Largest non-preemptible slice of background work per channel;
        defaults to one page program.
    retry_model:
        Read-retry sampler; pass ``None`` to disable retries (every
        read decodes in its first sensing round).  Defaults to
        :class:`~repro.sim.des.retry.ReadRetryModel` with its standard
        configuration.
    registry:
        Optional metrics registry; when set, the run publishes its
        counters, gauges and response-time histograms into it.
    tracer:
        Optional tracer; when set, post-warmup requests are offered to
        its sampling policy as full span trees.
    recorder:
        Optional :class:`repro.obs.WindowedRecorder`; when set, the run
        emits virtual-time-windowed telemetry — arrivals, in-flight
        requests, per-channel page-op and busy/GC microseconds, retry
        and uncorrectable rates, degraded-mode state — and the SSD's
        own windowed series (GC runs, scrub refreshes, block
        retirements) are routed into the same recorder.  Windows cover
        the *whole* run including warmup: the time-resolved view is the
        point, and warmup is part of the timeline.
    sample_cap:
        Overrides the result's exact-sample cap (None keeps
        :data:`repro.sim.results.DEFAULT_SAMPLE_CAP`).
    profiler:
        Optional :class:`repro.obs.profile.EventLoopProfiler`; when
        set, every event-loop iteration is timed under its event kind
        and the per-request phases (sense/transfer/decode/retry/GC/
        trace) are accounted inside it.  Wall-clock only — the
        simulated-time outputs are byte-identical with or without a
        profiler, and with ``None`` the only cost is the guard checks.
    channel_telemetry:
        Optional :class:`repro.obs.channel.ChannelTelemetry`; when set,
        every flash read reports its block, sensing configuration,
        retry rounds and wear context into the media-telemetry
        accumulator, ``channel.*`` windowed series and registry
        counters are emitted, and the SSD routes erase/retire events
        into the same sink.  Uses its own seeded generator for the
        observed-error estimate, so the simulated-time outputs are
        byte-identical with or without telemetry attached.
    """

    def __init__(
        self,
        system: StorageSystem,
        warmup_fraction: float = 0.1,
        n_channels: int = 1,
        gc_granule_us: float | None = None,
        retry_model: ReadRetryModel | None | object = _DEFAULT_RETRY,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder: WindowedRecorder | None = None,
        sample_cap: int | None = None,
        profiler: EventLoopProfiler | None = None,
        channel_telemetry: ChannelTelemetry | None = None,
    ):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction outside [0, 1)")
        if n_channels < 1:
            raise ConfigurationError("need at least one channel")
        self.system = system
        self.warmup_fraction = warmup_fraction
        self.n_channels = n_channels
        if gc_granule_us is None:
            gc_granule_us = system.config.ssd.timing.program_us
        if gc_granule_us < 0:
            raise ConfigurationError("negative GC granule")
        self.gc_granule_us = gc_granule_us
        if retry_model is _DEFAULT_RETRY:
            retry_model = ReadRetryModel()
        self.retry_model = retry_model
        self.registry = registry
        self.tracer = tracer
        self.recorder = recorder
        if sample_cap is not None and sample_cap < 0:
            raise ConfigurationError("negative sample cap")
        self.sample_cap = sample_cap
        self.profiler = profiler
        self.channel_telemetry = channel_telemetry
        # With a fault injector on the SSD, ladder exhaustion gains its
        # terminal branch: the final round's residual failure probability
        # is sampled into uncorrectable reads.  Without one, exhaustion
        # keeps the legacy optimistic semantics (top round succeeds).
        self._fault_injector = system.ssd.fault_injector

    def run(
        self,
        records: Iterable[TraceRecord],
        workload_name: str = "unnamed",
        crash_us: float | None = None,
    ) -> DesSimulationResult:
        """Replay a trace and return the extended DES results."""
        records = list(records)
        if not records:
            raise ConfigurationError("empty trace")
        warmup_count = int(len(records) * self.warmup_fraction)
        if warmup_count >= len(records):
            raise ConfigurationError(
                f"warmup fraction {self.warmup_fraction} rounds to all "
                f"{len(records)} requests — nothing would be recorded"
            )
        return self.run_source(
            TraceSource(records),
            workload_name,
            warmup_count=warmup_count,
            crash_us=crash_us,
        )

    def run_source(
        self,
        source: RequestSource,
        workload_name: str = "unnamed",
        warmup_count: int = 0,
        crash_us: float | None = None,
    ) -> DesSimulationResult:
        """Drive the event loop from a live request source.

        The source is polled for the next request each time the
        previous arrival has been dispatched; if it reports itself
        blocked (``None``), it is polled again after every completion,
        *after* its ``on_complete`` hook ran — so a closed-loop or
        QoS-gated source releases follow-up work at exactly the virtual
        time that unblocked it.  ``warmup_count`` leading requests (by
        emission index) run without being recorded.

        ``crash_us`` models a sudden power-off: the event loop stops
        cold before processing any event at or past the cut.  Requests
        dispatched before the cut have mutated the FTL (that is the
        crash-consistency problem recovery solves); every in-flight
        request is reported to the source via ``on_abort`` and counted
        in ``result.aborted_requests`` instead of completing.
        """
        if warmup_count < 0:
            raise ConfigurationError(f"negative warmup count: {warmup_count}")
        result = DesSimulationResult(
            system_name=self.system.name, workload_name=workload_name
        )
        if self.sample_cap is not None:
            result.sample_cap = self.sample_cap
        scheduler = ChannelScheduler(self.n_channels, self.gc_granule_us)
        heap = EventHeap()
        first = source.next_request(0.0)
        if first is None:
            raise ConfigurationError("request source produced no requests")
        pending: dict[int, PendingRequest] = {first.index: first}
        heap.push(Event(first.record.timestamp_us, _ARRIVAL, first.index))
        source_blocked = False
        recorder = self.recorder
        if recorder is not None:
            self.system.ssd.window_recorder = recorder
        if self.channel_telemetry is not None:
            self.system.ssd.channel_telemetry = self.channel_telemetry
        # At a power cut the observers are advanced to the device's
        # last activity before it, page-op completions and GC drains
        # included; without a recorder nothing observes that instant.
        cut_us = crash_us if recorder is not None else None
        last_activity_us = -math.inf

        ops_dispatched = 0
        requests_completed = 0
        inflight = 0
        origin_us = first.record.timestamp_us
        last_completion_us = origin_us
        profiler = self.profiler
        crashed = False
        loop_t0 = perf_counter()
        while heap:
            if profiler is not None:
                iter_t0 = profiler.clock()
            time_us, kind, index, response_us = heap.pop()
            if crash_us is not None and time_us >= crash_us:
                # Sudden power-off: nothing at or after the cut happens.
                crashed = True
                break
            if profiler is not None:
                profiler.begin(_EVENT_KEYS[kind], iter_t0)
            if recorder is not None:
                # Virtual time is monotone over popped events, and no
                # observation is ever recorded before the current event
                # time — windows behind this event are final, so online
                # consumers (the health monitor) may close them now.
                # The source flushes its between-poll observations
                # (queue-pair submissions stamped at submit time) first.
                source.advance_to(time_us)
                recorder.advance(time_us)
            if kind is _ARRIVAL:
                request = pending[index]
                if recorder is not None:
                    inflight += 1
                    recorder.add("sim.arrivals", time_us)
                    recorder.sample("sim.inflight_requests", time_us, inflight)
                ops_dispatched += request.record.n_pages
                activity_us = self._dispatch(
                    request, scheduler, heap, result, warmup_count, cut_us
                )
                if activity_us > last_activity_us:
                    last_activity_us = activity_us
                nxt = source.next_request(time_us)
                if nxt is not None:
                    pending[nxt.index] = nxt
                    heap.push(Event(nxt.record.timestamp_us, _ARRIVAL, nxt.index))
                source_blocked = nxt is None
            else:  # REQUEST_COMPLETE
                requests_completed += 1
                last_completion_us = time_us
                if recorder is not None:
                    inflight -= 1
                    recorder.sample("sim.inflight_requests", time_us, inflight)
                    recorder.sample(
                        "sim.degraded.read_only",
                        time_us,
                        float(self.system.ssd.read_only),
                    )
                    recorder.sample("sim.response_us", time_us, response_us)
                done = pending.pop(index)
                if index >= warmup_count:
                    result.record(done.record.is_write, response_us)
                source.on_complete(index, time_us, response_us)
                if source_blocked:
                    nxt = source.next_request(time_us)
                    if nxt is not None:
                        pending[nxt.index] = nxt
                        heap.push(
                            Event(nxt.record.timestamp_us, _ARRIVAL, nxt.index)
                        )
                        source_blocked = False
            if profiler is not None:
                profiler.end()
        loop_s = perf_counter() - loop_t0
        if crashed and last_activity_us > -math.inf:
            # Channels may have kept working past the last event before
            # the cut: advance the observers to their last activity
            # (a no-op if an event already took them further).
            source.advance_to(last_activity_us)
            recorder.advance(last_activity_us)
        if recorder is not None:
            recorder.flush()

        if crashed:
            # Crash-specific conservation: every emitted request either
            # completed before the cut or is accounted as aborted.
            for index in sorted(pending):
                source.on_abort(index)
            aborted = len(pending)
            pending.clear()
            if requests_completed + aborted != source.emitted:
                raise SimulationError(
                    f"crash accounting leak: {source.emitted} emitted != "
                    f"{requests_completed} completed + {aborted} aborted"
                )
            result.crashed = True
            result.crash_us = crash_us
            result.aborted_requests = aborted
        else:
            self._check_conservation(
                source.emitted, requests_completed, ops_dispatched, scheduler
            )
        result.channel_busy_us = scheduler.busy_times_us()
        result.makespan_us = max(last_completion_us - origin_us, 0.0)
        # Wall-clock accounting rides on result *attributes* only —
        # summary()/stats stay machine-independent so every
        # byte-determinism guarantee downstream survives.
        result.wall_loop_s = loop_s
        result.wall_events = heap.popped
        result.wall_requests = requests_completed
        record_loop(heap.popped, requests_completed, loop_s)
        if profiler is not None:
            profiler.finish_loop(loop_s, heap.popped, requests_completed)
        result.stats = self.system.ssd.stats.snapshot()
        result.stats["reduced_logical_pages"] = self.system.ssd.reduced_logical_pages()
        result.stats["max_pe_cycles"] = self.system.ssd.max_pe_cycles()
        result.stats["residual_backlog_us"] = scheduler.residual_backlog_us
        result.stats["mean_retry_rounds"] = result.mean_retry_rounds()
        if result.crashed:
            # Gated on an actual crash: crash-free stats snapshots stay
            # byte-identical to pre-SPO builds.
            result.stats["crashed"] = 1.0
            result.stats["aborted_requests"] = float(result.aborted_requests)
        if self._fault_injector is not None:
            # Fault-gated keys: absent on fault-free runs so their
            # stats snapshots stay byte-identical to pre-fault builds.
            result.stats["uncorrectable_reads"] = result.uncorrectable_reads
            result.stats["uncorrectable_rate"] = result.uncorrectable_rate()
            result.stats["read_only"] = float(self.system.ssd.read_only)
            bbt = self.system.ssd.bad_block_table
            if bbt is not None:
                result.stats["spare_blocks_remaining"] = bbt.spare_remaining
        if self.registry is not None:
            self._publish_metrics(result, scheduler)
        return result

    # --- internals ------------------------------------------------------------------

    def _dispatch(
        self,
        pending: PendingRequest,
        scheduler: ChannelScheduler,
        heap: EventHeap,
        result: DesSimulationResult,
        warmup_count: int,
        cut_us: float | None,
    ) -> float:
        """Split a request into page ops, route them, commit service.

        Schedules the request's completion at the latest frontier of
        the channels it touched.  Service starts no earlier than
        ``pending.record.timestamp_us`` (the dispatch time); the
        response and the trace root are measured from ``pending.t0_us``
        (the submission time), so ingress-side queueing shows up as
        queue wait.

        Returns the latest instant before ``cut_us`` at which a page op
        completed or a GC drain started (``-inf`` if none, or if
        ``cut_us`` is ``None``).
        """
        record = pending.record
        index = pending.index
        arrival = record.timestamp_us
        t0 = pending.t0_us
        footprint = self.system.config.footprint_pages
        channel_of = self.system.ssd.channel_of
        n_channels = self.n_channels
        ops_by_channel: dict[int, list[int]] = {}
        for lpn in record.pages():
            if footprint:
                lpn %= footprint
            channel = channel_of(lpn, n_channels)
            ops_by_channel.setdefault(channel, []).append(lpn)

        trace: Span | None = None
        profiler = self.profiler
        if self.tracer is not None and index >= warmup_count:
            if profiler is not None:
                profiler.begin("phase.trace")
            trace = self.tracer.begin_request(
                "write_request" if record.is_write else "read_request",
                t0,
                index=index,
                n_pages=record.n_pages,
                **pending.attrs,
            )
            if profiler is not None:
                profiler.end()

        completion = arrival
        activity_us = -math.inf
        first_op_start: float | None = None
        recorder = self.recorder
        telemetry = self.channel_telemetry
        service_us = self._service_us
        for channel, lpns in ops_by_channel.items():
            if profiler is not None:
                profiler.begin("phase.gc")
            report = scheduler.admit(channel, arrival)
            if profiler is not None:
                profiler.end()
            if report.drained_us + report.stall_us > 0.0:
                if cut_us is not None and activity_us < report.start_us < cut_us:
                    activity_us = report.start_us
                if recorder is not None:
                    # Background work is binned at the admitting
                    # request's service start, not spread across the
                    # idle gap it actually drained into.
                    recorder.add(
                        f"sim.channel.{channel}.gc_us",
                        report.start_us,
                        report.drained_us + report.stall_us,
                    )
                if trace is not None and report.stall_us > 0.0:
                    trace.span(
                        "gc_stall",
                        report.start_us - report.stall_us,
                        channel=channel,
                        drained_us=report.drained_us,
                    ).end(report.start_us)
            start = report.start_us
            for lpn in lpns:
                service, breakdown, rounds, uncorrectable = service_us(
                    record, lpn, start, index, warmup_count, result, channel
                )
                op_done = scheduler.commit(channel, service)
                op_start = op_done - service
                if first_op_start is None or op_start < first_op_start:
                    first_op_start = op_start
                if cut_us is not None and activity_us < op_done < cut_us:
                    activity_us = op_done
                if recorder is not None:
                    recorder.add(f"sim.channel.{channel}.ops", op_start)
                    recorder.add(
                        f"sim.channel.{channel}.busy_us", op_start, service
                    )
                    if breakdown is not None and not breakdown.buffer_hit:
                        recorder.add("sim.read.flash_reads", op_start)
                        if rounds:
                            recorder.add(
                                "sim.read.retry_rounds", op_start, rounds
                            )
                        if uncorrectable:
                            recorder.add("sim.uncorrectable.reads", op_start)
                if (
                    telemetry is not None
                    and breakdown is not None
                    and not breakdown.buffer_hit
                ):
                    # The modeled per-round iteration trail only feeds
                    # the sampled trajectories; once the cap is full,
                    # skip computing it on every remaining read.
                    if len(telemetry.trajectories) < telemetry.trajectory_cap:
                        decode_iterations = (
                            self.system.latency.decode_iterations
                        )
                        iteration_trail = tuple(
                            decode_iterations(breakdown.provisioned_levels + r)
                            for r in range(rounds + 1)
                        )
                    else:
                        iteration_trail = ()
                    observed = telemetry.on_breakdown(
                        breakdown,
                        channel=channel,
                        rounds=rounds,
                        uncorrectable=uncorrectable,
                        iterations=iteration_trail,
                        tenant=pending.attrs.get("tenant"),
                    )
                    if recorder is not None:
                        recorder.add(
                            "channel.observed_errors", op_start, observed
                        )
                        recorder.sample(
                            "channel.sensing.levels",
                            op_start,
                            breakdown.provisioned_levels,
                        )
                        if rounds:
                            recorder.add(
                                "channel.sensing.escalations", op_start, rounds
                            )
                        if uncorrectable:
                            recorder.add("channel.uncorrectable", op_start)
                    if self.registry is not None:
                        self.registry.counter("channel.reads").inc()
                        self.registry.counter("channel.observed_errors").inc(
                            observed
                        )
                if trace is not None:
                    if profiler is not None:
                        profiler.begin("phase.trace")
                    self._trace_op(
                        trace, record, lpn, channel, op_start, service,
                        breakdown, rounds, uncorrectable,
                    )
                    if profiler is not None:
                        profiler.end()
            # The channel's frontier is now its last op's completion.
            if op_done > completion:
                completion = op_done

        if profiler is not None:
            profiler.begin("phase.gc")
        scheduler.add_background(self.system.take_background_us())
        if profiler is not None:
            profiler.end()
        heap.push(Event(completion, _REQUEST_COMPLETE, index, completion - t0))
        queue_wait = (
            max(0.0, first_op_start - t0) if first_op_start is not None else 0.0
        )
        if trace is not None:
            if profiler is not None:
                profiler.begin("phase.trace")
            wait_span = Span("queue_wait", t0)
            wait_span.end(t0 + queue_wait)
            trace.children.insert(0, wait_span)
            self.tracer.finish_request(trace, completion)
            if profiler is not None:
                profiler.end()
        if self.registry is not None and index >= warmup_count:
            self.registry.histogram("sim.queue_wait_us").observe(queue_wait)
        return activity_us

    def _service_us(
        self,
        record: TraceRecord,
        lpn: int,
        now_us: float,
        index: int,
        warmup_count: int,
        result: DesSimulationResult,
        channel: int,
    ) -> tuple[float, ReadServiceBreakdown | None, int, bool]:
        """One page operation's service time, retry rounds included.

        Returns ``(service_us, read breakdown or None for writes,
        retry rounds taken, uncorrectable)`` so tracing can reconstruct
        the sensing rounds the service time is made of.  A read is
        uncorrectable when the sensing ladder was exhausted *and* the
        fault injector's draw against the final round's residual
        failure probability comes up failed — the terminal outcome the
        optimistic legacy model lacks.
        """
        profiler = self.profiler
        if record.is_write:
            # Wall-wise a write is the buffer/program transfer path.
            if profiler is None:
                return self.system.serve_write_page(lpn, now_us), None, 0, False
            profiler.begin("phase.transfer")
            service = self.system.serve_write_page(lpn, now_us)
            profiler.end()
            return service, None, 0, False
        if profiler is not None:
            profiler.begin("phase.sense")
        breakdown = self.system.read_page_breakdown(lpn, now_us)
        if profiler is not None:
            profiler.end()
        service = breakdown.service_us
        rounds = 0
        uncorrectable = False
        if self.retry_model is not None and not breakdown.buffer_hit:
            if profiler is not None:
                profiler.begin("phase.retry")
            outcome = self.retry_model.sample_outcome(breakdown)
            rounds = outcome.extra_rounds
            service += outcome.extra_us
            if self._fault_injector is not None and outcome.exhausted:
                uncorrectable = self._fault_injector.read_uncorrectable(
                    outcome.final_failure_probability
                )
            if index >= warmup_count:
                result.record_retry_rounds(rounds)
                if uncorrectable:
                    result.record_uncorrectable(channel)
            if profiler is not None:
                profiler.end()
        if self.registry is not None and not breakdown.buffer_hit:
            if profiler is not None:
                profiler.begin("phase.decode")
            decode_iterations = self.system.latency.decode_iterations
            # One histogram sample per decode round: the sum matches
            # the old counter total while the distribution exposes
            # decode-iteration p50/p95/p99 (ladder escalation visible
            # as the upper tail).
            iterations_hist = self.registry.histogram("ecc.ldpc.iterations")
            for r in range(rounds + 1):
                iterations_hist.observe(
                    decode_iterations(breakdown.provisioned_levels + r)
                )
            self.registry.counter("ecc.ldpc.decode_rounds").inc(1 + rounds)
            self.registry.counter("sim.read.retry_rounds").inc(rounds)
            if uncorrectable:
                self.registry.counter("sim.uncorrectable.reads").inc()
                self.registry.counter(
                    f"sim.uncorrectable.channel.{channel}.reads"
                ).inc()
            if profiler is not None:
                profiler.end()
        return service, breakdown, rounds, uncorrectable

    def _trace_op(
        self,
        trace: Span,
        record: TraceRecord,
        lpn: int,
        channel: int,
        op_start: float,
        service: float,
        breakdown: ReadServiceBreakdown | None,
        rounds: int,
        uncorrectable: bool = False,
    ) -> None:
        """Attach one page operation's span subtree to the request."""
        if record.is_write:
            trace.span(
                "buffered_write", op_start, channel=channel, lpn=lpn
            ).end(op_start + service)
            return
        assert breakdown is not None
        if breakdown.buffer_hit:
            trace.span(
                "buffer_hit_read", op_start, channel=channel, lpn=lpn
            ).end(op_start + service)
            return
        op = trace.span(
            "flash_read",
            op_start,
            channel=channel,
            lpn=lpn,
            required_levels=breakdown.required_levels,
            provisioned_levels=breakdown.provisioned_levels,
        )
        if uncorrectable:
            op.attrs["uncorrectable"] = True
        latency = self.system.latency
        t = op_start
        for round_index in range(rounds + 1):
            level = breakdown.provisioned_levels + round_index
            if round_index == 0:
                sense, transfer, decode = latency.round_components_us(level)
            else:
                sense, transfer, decode = latency.retry_round_components_us(level)
            round_span = op.span(
                "sensing_round", t, round=round_index, extra_levels=level
            )
            round_span.span("sense", t).end(t + sense)
            round_span.span("transfer", t + sense).end(t + sense + transfer)
            round_span.span(
                "ldpc_decode",
                t + sense + transfer,
                iterations=latency.decode_iterations(level),
            ).end(t + sense + transfer + decode)
            t += sense + transfer + decode
            round_span.end(t)
        if breakdown.post_read_us > 0.0:
            op.span("post_read", t).end(t + breakdown.post_read_us)
        op.end(op_start + service)

    def _publish_metrics(
        self, result: DesSimulationResult, scheduler: ChannelScheduler
    ) -> None:
        """Push the run's counters and histograms into the registry."""
        registry = self.registry
        self.system.publish_metrics(registry)
        registry.register("sim.read.response_us", result.read_hist)
        registry.register("sim.write.response_us", result.write_hist)
        registry.gauge("sim.makespan_us").set(result.makespan_us)
        # Wall-clock throughput of the loop itself (machine-dependent
        # provenance; lands in manifests, never in hashed configs).
        registry.gauge("sim.wall.loop_s").set(result.wall_loop_s)
        registry.gauge("sim.wall.events_per_s").set(result.wall_events_per_s())
        registry.gauge("sim.wall.requests_per_s").set(
            result.wall_requests_per_s()
        )
        registry.gauge("sim.residual_backlog_us").set(scheduler.residual_backlog_us)
        registry.gauge("sim.read.mean_retry_rounds").set(result.mean_retry_rounds())
        if self._fault_injector is not None:
            registry.gauge("sim.uncorrectable.rate").set(result.uncorrectable_rate())
        for channel, busy_us in enumerate(result.channel_busy_us):
            registry.gauge(f"sim.channel.{channel}.busy_us").set(busy_us)
            utilization = (
                busy_us / result.makespan_us if result.makespan_us > 0.0 else 0.0
            )
            registry.gauge(f"sim.channel.{channel}.utilization").set(utilization)

    @staticmethod
    def _check_conservation(
        n_requests: int,
        requests_completed: int,
        ops_dispatched: int,
        scheduler: ChannelScheduler,
    ) -> None:
        if requests_completed != n_requests:
            raise SimulationError(
                f"{requests_completed} of {n_requests} requests completed"
            )
        if scheduler.total_ops_committed != ops_dispatched:
            raise SimulationError(
                f"scheduler committed {scheduler.total_ops_committed} ops, "
                f"dispatcher issued {ops_dispatched}"
            )
