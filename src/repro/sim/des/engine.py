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

Observability: the engine emits run events (arrival, GC drain, page
op serviced, request dispatched and completed, end of run) to a tuple
of :class:`~repro.sim.des.observers.RunObserver` subscribers, and the
SSD emits its FTL events to the same tuple while a run is in progress.
:func:`repro.sim.des.observers.observe` turns a tracer, metrics
registry, windowed recorder and channel telemetry into subscribers —
so a slow p99 read can be attributed to queueing vs. sensing rounds
vs. decoder time instead of being one opaque number.

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
from repro.sim.des.events import Event, EventHeap, EventKind
from repro.sim.des.ingress import PendingRequest, RequestSource, TraceSource
from repro.sim.des.observers import RunObserver, subscribers
from repro.sim.des.retry import ReadRetryModel
from repro.sim.des.scheduler import ChannelScheduler
from repro.sim.results import DesSimulationResult
from repro.traces.schema import TraceRecord

_ARRIVAL = EventKind.ARRIVAL
_REQUEST_COMPLETE = EventKind.REQUEST_COMPLETE

#: Sentinel for the default (enabled, default-config) retry model.
_DEFAULT_RETRY = object()


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
    retry_model:
        Read-retry sampler; pass ``None`` to disable retries (every
        read decodes in its first sensing round).  Defaults to
        :class:`~repro.sim.des.retry.ReadRetryModel` with its standard
        configuration.
    observers:
        :class:`~repro.sim.des.observers.RunObserver` subscribers that
        receive the run's events, in this order (build them with
        :func:`~repro.sim.des.observers.observe`).  They observe only:
        the simulated-time outputs are byte-identical with or without
        them.
    """

    def __init__(
        self,
        system: StorageSystem,
        warmup_fraction: float = 0.1,
        n_channels: int = 1,
        retry_model: ReadRetryModel | None | object = _DEFAULT_RETRY,
        observers: Iterable[RunObserver] = (),
    ):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction outside [0, 1)")
        if n_channels < 1:
            raise ConfigurationError("need at least one channel")
        self.system = system
        self.warmup_fraction = warmup_fraction
        self.n_channels = n_channels
        if retry_model is _DEFAULT_RETRY:
            retry_model = ReadRetryModel()
        self.retry_model = retry_model
        self.observers = tuple(observers)
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
        first = source.next_request(0.0)
        if first is None:
            raise ConfigurationError("request source produced no requests")
        # The SSD's FTL events reach the observers for this run only.
        detached = self.system.ssd.attach(self.observers)
        try:
            return self._run_loop(
                source, first, workload_name, warmup_count, crash_us
            )
        finally:
            self.system.ssd.attach(detached)

    # --- internals ------------------------------------------------------------------

    def _run_loop(
        self,
        source: RequestSource,
        first: PendingRequest,
        workload_name: str,
        warmup_count: int,
        crash_us: float | None,
    ) -> DesSimulationResult:
        result = DesSimulationResult(
            system_name=self.system.name, workload_name=workload_name
        )
        # Per-run loop state, read by the event handlers.
        self._source = source
        self._result = result
        self._warmup_count = warmup_count
        # Background GC yields the channel at page-program granularity.
        self._scheduler = scheduler = ChannelScheduler(
            self.n_channels, self.system.config.ssd.timing.program_us
        )
        self._heap = heap = EventHeap()
        self._pending: dict[int, PendingRequest] = {first.index: first}
        heap.push(Event(first.record.timestamp_us, _ARRIVAL, first.index))
        self._source_blocked = False
        self._ops_dispatched = 0
        self._requests_completed = 0
        origin_us = first.record.timestamp_us
        self._last_completion_us = origin_us
        observers = self.observers
        for observer in observers:
            observer.start(self.system, source, warmup_count, crash_us)
        # Each per-event hook goes only to the observers that override it.
        advancing = subscribers(observers, "advance")
        self._on_arrival = subscribers(observers, "arrival")
        self._on_gc_drained = subscribers(observers, "gc_drained")
        self._on_op_serviced = subscribers(observers, "op_serviced")
        self._on_dispatched = subscribers(observers, "dispatched")
        self._on_request_complete = subscribers(observers, "request_complete")

        cut_us = math.inf if crash_us is None else crash_us
        arrival = self._arrival
        request_complete = self._request_complete
        crashed = False
        loop_t0 = perf_counter()
        while heap:
            time_us, kind, index, response_us = heap.pop()
            if time_us >= cut_us:
                # Sudden power-off: nothing at or after the cut happens.
                crashed = True
                break
            # Virtual time is monotone over popped events, and no
            # observation is ever made before the current event time.
            for observer in advancing:
                observer.advance(time_us)
            if kind is _ARRIVAL:
                arrival(time_us, index)
            else:  # REQUEST_COMPLETE
                request_complete(time_us, index, response_us)
        loop_s = perf_counter() - loop_t0

        pending = self._pending
        requests_completed = self._requests_completed
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
                source.emitted, requests_completed, self._ops_dispatched, scheduler
            )
        result.channel_busy_us = scheduler.busy_times_us()
        result.makespan_us = max(self._last_completion_us - origin_us, 0.0)
        # Wall-clock accounting rides on result *attributes* only —
        # summary()/stats stay machine-independent so every
        # byte-determinism guarantee downstream survives.
        result.wall_loop_s = loop_s
        result.wall_events = heap.popped
        result.wall_requests = requests_completed
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
        for observer in observers:
            observer.finish(result, scheduler)
        return result

    def _arrival(self, time_us: float, index: int) -> None:
        """An ``ARRIVAL`` event: dispatch the request, poll for the next."""
        request = self._pending[index]
        for observer in self._on_arrival:
            observer.arrival(request, time_us)
        self._ops_dispatched += request.record.n_pages
        self._dispatch(request)
        self._poll(time_us)

    def _request_complete(
        self, time_us: float, index: int, response_us: float
    ) -> None:
        """A ``REQUEST_COMPLETE`` event: record it, tell the source."""
        self._requests_completed += 1
        self._last_completion_us = time_us
        done = self._pending.pop(index)
        for observer in self._on_request_complete:
            observer.request_complete(done, time_us, response_us)
        if index >= self._warmup_count:
            self._result.record(done.record.is_write, response_us)
        self._source.on_complete(index, time_us, response_us)
        if self._source_blocked:
            self._poll(time_us)

    def _poll(self, time_us: float) -> None:
        """Ask the source for its next request and schedule its arrival."""
        nxt = self._source.next_request(time_us)
        self._source_blocked = nxt is None
        if nxt is not None:
            self._pending[nxt.index] = nxt
            self._heap.push(Event(nxt.record.timestamp_us, _ARRIVAL, nxt.index))

    def _dispatch(self, pending: PendingRequest) -> None:
        """Split a request into page ops, route them, commit service.

        Schedules the request's completion at the latest frontier of
        the channels it touched.  Service starts no earlier than
        ``pending.record.timestamp_us`` (the dispatch time); the
        response and the queue wait are measured from ``pending.t0_us``
        (the submission time), so ingress-side queueing shows up as
        queue wait.
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

        scheduler = self._scheduler
        on_gc_drained = self._on_gc_drained
        on_op_serviced = self._on_op_serviced
        service_us = self._service_us
        completion = arrival
        first_op_start = math.inf
        for channel, lpns in ops_by_channel.items():
            report = scheduler.admit(channel, arrival)
            start = report.start_us
            for observer in on_gc_drained:
                observer.gc_drained(
                    channel, start, report.drained_us, report.stall_us
                )
            for lpn in lpns:
                service, breakdown, rounds, uncorrectable = service_us(
                    record, lpn, start, index, channel
                )
                op_done = scheduler.commit(channel, service)
                op_start = op_done - service
                if op_start < first_op_start:
                    first_op_start = op_start
                for observer in on_op_serviced:
                    observer.op_serviced(
                        pending, channel, lpn, op_start, service, op_done,
                        breakdown, rounds, uncorrectable,
                    )
            # The channel's frontier is now its last op's completion.
            if op_done > completion:
                completion = op_done

        scheduler.add_background(self.system.take_background_us())
        self._heap.push(Event(completion, _REQUEST_COMPLETE, index, completion - t0))
        queue_wait = max(0.0, first_op_start - t0)
        for observer in self._on_dispatched:
            observer.dispatched(pending, completion, queue_wait)

    def _service_us(
        self,
        record: TraceRecord,
        lpn: int,
        now_us: float,
        index: int,
        channel: int,
    ) -> tuple[float, ReadServiceBreakdown | None, int, bool]:
        """One page operation's service time, retry rounds included.

        Returns ``(service_us, read breakdown or None for writes,
        retry rounds taken, uncorrectable)`` so observers can
        reconstruct the sensing rounds the service time is made of.  A
        read is uncorrectable when the sensing ladder was exhausted
        *and* the fault injector's draw against the final round's
        residual failure probability comes up failed — the terminal
        outcome the optimistic legacy model lacks.
        """
        if record.is_write:
            return self.system.serve_write_page(lpn, now_us), None, 0, False
        breakdown = self.system.read_page_breakdown(lpn, now_us)
        service = breakdown.service_us
        rounds = 0
        uncorrectable = False
        retry_model = self.retry_model
        if retry_model is not None and not breakdown.buffer_hit:
            rounds, extra_us, exhausted, final_failure_probability = (
                retry_model.sample_outcome(breakdown)
            )
            service += extra_us
            if self._fault_injector is not None and exhausted:
                uncorrectable = self._fault_injector.read_uncorrectable(
                    final_failure_probability
                )
            if index >= self._warmup_count:
                self._result.record_retry_rounds(rounds)
                if uncorrectable:
                    self._result.record_uncorrectable(channel)
        return service, breakdown, rounds, uncorrectable

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
