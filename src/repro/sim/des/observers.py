"""Run observers: the one seam between the event loop and observability.

The engine emits typed run events to a tuple of :class:`RunObserver`
subscribers in virtual-time order, and the SSD emits its FTL events to
the same tuple while a run is in progress (docs/ARCHITECTURE.md,
"Observer seam").  ``advance(t)`` comes before each popped event is
handled; nothing is observed behind ``t`` afterwards.  One class per
instrument translates events into its API, and :func:`observe` builds
them in the order that keeps every instrument's observations in a
fixed sequence.
"""

from __future__ import annotations

import math

from repro.obs.attribution import OpRecord, attribute
from repro.obs.tracing import Span


def iteration_trail(latency, provisioned_levels: int, rounds: int) -> tuple:
    """Modeled LDPC decode iterations of each sensing round of a read."""
    decode_iterations = latency.decode_iterations
    return tuple(
        decode_iterations(provisioned_levels + r) for r in range(rounds + 1)
    )


def sensing_timeline(latency, provisioned_levels: int, rounds: int, start_us: float):
    """Each sensing round of a flash read starting at ``start_us``.

    Yields ``(level, start, sense_end, transfer_end, decode_end, end)``
    per round, first round first.  Span trees and attribution records
    are both built from these boundaries, so they agree bit for bit.
    """
    t = start_us
    for round_index in range(rounds + 1):
        level = provisioned_levels + round_index
        if round_index == 0:
            sense, transfer, decode = latency.round_components_us(level)
        else:
            sense, transfer, decode = latency.retry_round_components_us(level)
        start = t
        t += sense + transfer + decode
        yield (
            level,
            start,
            start + sense,
            start + sense + transfer,
            start + sense + transfer + decode,
            t,
        )


def _request_root(tracer, pending) -> Span:
    """The root span of one request, opened on ``tracer``."""
    record = pending.record
    return tracer.begin_request(
        "write_request" if record.is_write else "read_request",
        pending.t0_us,
        index=pending.index,
        n_pages=record.n_pages,
        **pending.attrs,
    )


class RunObserver:
    """A run subscriber: ``start`` keeps the run's context, every other
    hook is a no-op until overridden.  ``breakdown`` is ``None`` for
    writes, and ``gc_drained`` fires on every channel admission."""

    def start(self, system, source, warmup_count: int, crash_us: float | None) -> None:
        self.system = system
        self.source = source
        self.warmup_count = warmup_count
        self.crash_us = crash_us

    def advance(self, time_us: float) -> None:
        pass

    def arrival(self, pending, time_us: float) -> None:
        pass

    def gc_drained(
        self, channel: int, start_us: float, drained_us: float, stall_us: float
    ) -> None:
        pass

    def op_serviced(
        self, pending, channel: int, lpn: int, op_start: float, service: float,
        op_done: float, breakdown, rounds: int, uncorrectable: bool,
    ) -> None:
        pass

    def dispatched(self, pending, completion_us: float, queue_wait_us: float) -> None:
        pass

    def request_complete(self, pending, time_us: float, response_us: float) -> None:
        pass

    def finish(self, result, scheduler) -> None:
        pass

    # --- FTL events, stamped at the SSD's last host-path time ----------------------

    def gc_run(self, time_us: float) -> None:
        pass

    def scrub_refresh(self, time_us: float) -> None:
        pass

    def block_erased(self, block: int, pe_cycles: float) -> None:
        pass

    def block_retired(self, block: int, reason: str, time_us: float) -> None:
        pass

    def read_only(self, time_us: float) -> None:
        pass


def subscribers(observers, hook: str) -> tuple:
    """The observers whose class overrides ``hook``, in order.

    The engine sends each per-event hook only to these: every other
    observer would run :class:`RunObserver`'s no-op, so leaving it out
    changes nothing but the cost of attaching it.
    """
    noop = getattr(RunObserver, hook)
    return tuple(
        observer for observer in observers if getattr(type(observer), hook) is not noop
    )


class RecorderObserver(RunObserver):
    """Virtual-time-windowed series into a ``WindowedRecorder``.

    Windows cover the *whole* run including warmup: the time-resolved
    view is the point, and warmup is part of the timeline.
    """

    def __init__(self, recorder):
        self.recorder = recorder

    def start(self, system, source, warmup_count, crash_us):
        super().start(system, source, warmup_count, crash_us)
        self._last_activity_us = -math.inf
        self._inflight = 0

    def advance(self, time_us):
        # The source flushes its between-poll observations (queue-pair
        # submissions stamped at submit time) before windows close.
        self.source.advance_to(time_us)
        self.recorder.advance(time_us)

    def arrival(self, pending, time_us):
        self._inflight += 1
        self.recorder.add("sim.arrivals", time_us)
        self.recorder.sample("sim.inflight_requests", time_us, self._inflight)

    def gc_drained(self, channel, start_us, drained_us, stall_us):
        if drained_us + stall_us > 0.0:
            self._note_activity(start_us)
            # Background work is binned at the admitting request's
            # service start, not spread across the idle gap it drained
            # into.
            self.recorder.add(
                f"sim.channel.{channel}.gc_us", start_us, drained_us + stall_us
            )

    def op_serviced(
        self, pending, channel, lpn, op_start, service, op_done,
        breakdown, rounds, uncorrectable,
    ):
        self._note_activity(op_done)
        recorder = self.recorder
        recorder.add(f"sim.channel.{channel}.ops", op_start)
        recorder.add(f"sim.channel.{channel}.busy_us", op_start, service)
        if breakdown is not None and not breakdown.buffer_hit:
            recorder.add("sim.read.flash_reads", op_start)
            if rounds:
                recorder.add("sim.read.retry_rounds", op_start, rounds)
            if uncorrectable:
                recorder.add("sim.uncorrectable.reads", op_start)

    def request_complete(self, pending, time_us, response_us):
        self._inflight -= 1
        recorder = self.recorder
        recorder.sample("sim.inflight_requests", time_us, self._inflight)
        recorder.sample(
            "sim.degraded.read_only", time_us, float(self.system.ssd.read_only)
        )
        recorder.sample("sim.response_us", time_us, response_us)

    def finish(self, result, scheduler):
        if result.crashed and self._last_activity_us > -math.inf:
            # Channels may have kept working past the last event before
            # the cut: advance to their last activity (a no-op if an
            # event already took the recorder further).
            self.advance(self._last_activity_us)
        self.recorder.flush()

    def _note_activity(self, time_us: float) -> None:
        """Track the last page-op completion or GC drain before a cut."""
        cut_us = self.crash_us
        if cut_us is not None and self._last_activity_us < time_us < cut_us:
            self._last_activity_us = time_us

    def gc_run(self, time_us):
        self.recorder.add("ftl.gc.runs", time_us)

    def scrub_refresh(self, time_us):
        self.recorder.add("ftl.scrub.refreshed_pages", time_us)

    def block_retired(self, block, reason, time_us):
        self.recorder.add("ftl.bbt.retired", time_us)

    def read_only(self, time_us):
        self.recorder.sample("ftl.degraded.read_only", time_us, 1.0)


class RegistryObserver(RunObserver):
    """Counters, histograms and end-of-run gauges into a ``MetricsRegistry``."""

    def __init__(self, registry):
        self.registry = registry

    def op_serviced(
        self, pending, channel, lpn, op_start, service, op_done,
        breakdown, rounds, uncorrectable,
    ):
        if breakdown is not None and not breakdown.buffer_hit:
            self.decoded(channel, breakdown, rounds, uncorrectable)

    def decoded(self, channel, breakdown, rounds, uncorrectable) -> None:
        """One flash read's decode rounds, retries and outcome."""
        registry = self.registry
        # One histogram sample per decode round: the distribution
        # exposes decode-iteration p50/p95/p99 (ladder escalation
        # visible as the upper tail).
        iterations = registry.histogram("ecc.ldpc.iterations")
        latency = self.system.latency
        for n in iteration_trail(latency, breakdown.provisioned_levels, rounds):
            iterations.observe(n)
        registry.counter("ecc.ldpc.decode_rounds").inc(1 + rounds)
        registry.counter("sim.read.retry_rounds").inc(rounds)
        if uncorrectable:
            registry.counter("sim.uncorrectable.reads").inc()
            registry.counter(f"sim.uncorrectable.channel.{channel}.reads").inc()

    def dispatched(self, pending, completion_us, queue_wait_us):
        if pending.index >= self.warmup_count:
            self.registry.histogram("sim.queue_wait_us").observe(queue_wait_us)

    def finish(self, result, scheduler):
        registry = self.registry
        self.system.publish_metrics(registry)
        registry.register("sim.read.response_us", result.read_hist)
        registry.register("sim.write.response_us", result.write_hist)
        registry.gauge("sim.makespan_us").set(result.makespan_us)
        # Wall-clock throughput of the loop itself (machine-dependent
        # provenance; lands in manifests, never in hashed configs).
        registry.gauge("sim.wall.loop_s").set(result.wall_loop_s)
        registry.gauge("sim.wall.events_per_s").set(result.wall_events_per_s())
        registry.gauge("sim.wall.requests_per_s").set(result.wall_requests_per_s())
        registry.gauge("sim.residual_backlog_us").set(scheduler.residual_backlog_us)
        registry.gauge("sim.read.mean_retry_rounds").set(result.mean_retry_rounds())
        if self.system.ssd.fault_injector is not None:
            registry.gauge("sim.uncorrectable.rate").set(result.uncorrectable_rate())
        for channel, busy_us in enumerate(result.channel_busy_us):
            registry.gauge(f"sim.channel.{channel}.busy_us").set(busy_us)
            utilization = (
                busy_us / result.makespan_us if result.makespan_us > 0.0 else 0.0
            )
            registry.gauge(f"sim.channel.{channel}.utilization").set(utilization)


class ChannelObserver(RunObserver):
    """Flash reads, erases and retirements into a ``ChannelTelemetry``.

    With a recorder or a registry given, the ``channel.*`` windowed
    series and counters are written next to each read.
    """

    def __init__(self, telemetry, recorder=None, registry=None):
        self.telemetry = telemetry
        self.recorder = recorder
        self.registry = registry

    def op_serviced(
        self, pending, channel, lpn, op_start, service, op_done,
        breakdown, rounds, uncorrectable,
    ):
        if breakdown is None or breakdown.buffer_hit:
            return
        (
            _, _, mode, required, levels, _, _, _, raw_ber, block, pe_cycles,
            age_hours,
        ) = breakdown
        telemetry = self.telemetry
        # The iteration trail only feeds the sampled trajectories; once
        # the cap is full, skip computing it on every remaining read.
        if len(telemetry.trajectories) < telemetry.trajectory_cap:
            trail = iteration_trail(self.system.latency, levels, rounds)
        else:
            trail = ()
        observed = telemetry.on_read(
            block, mode, raw_ber, levels, required, pe_cycles, age_hours,
            channel, rounds, uncorrectable, trail, pending.attrs.get("tenant"),
        )
        recorder = self.recorder
        if recorder is not None:
            recorder.add("channel.observed_errors", op_start, observed)
            recorder.sample("channel.sensing.levels", op_start, levels)
            if rounds:
                recorder.add("channel.sensing.escalations", op_start, rounds)
            if uncorrectable:
                recorder.add("channel.uncorrectable", op_start)
        if self.registry is not None:
            self.registry.counter("channel.reads").inc()
            self.registry.counter("channel.observed_errors").inc(observed)

    def block_erased(self, block, pe_cycles):
        self.telemetry.on_erase(block, pe_cycles)

    def block_retired(self, block, reason, time_us):
        self.telemetry.on_retire(block, reason)


class TracerObserver(RunObserver):
    """Post-warmup requests as span trees offered to a ``Tracer``.

    Each tree holds the request's queue wait, GC stalls and page
    operations; a flash read splits into its sensing rounds, each with
    its sense/transfer/LDPC-decode components.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._trace: Span | None = None

    def arrival(self, pending, time_us):
        self._trace = None
        if pending.index < self.warmup_count:
            return
        self._trace = _request_root(self.tracer, pending)

    def gc_drained(self, channel, start_us, drained_us, stall_us):
        if self._trace is not None and stall_us > 0.0:
            self._trace.span(
                "gc_stall", start_us - stall_us, channel=channel,
                drained_us=drained_us,
            ).end(start_us)

    def op_serviced(
        self, pending, channel, lpn, op_start, service, op_done,
        breakdown, rounds, uncorrectable,
    ):
        trace = self._trace
        if trace is None:
            return
        if breakdown is None or breakdown.buffer_hit:
            name = "buffered_write" if breakdown is None else "buffer_hit_read"
            trace.span(name, op_start, channel=channel, lpn=lpn).end(
                op_start + service
            )
            return
        levels = breakdown.provisioned_levels
        op = trace.span(
            "flash_read", op_start, channel=channel, lpn=lpn,
            required_levels=breakdown.required_levels, provisioned_levels=levels,
        )
        if uncorrectable:
            op.attrs["uncorrectable"] = True
        latency = self.system.latency
        timeline = sensing_timeline(latency, levels, rounds, op_start)
        for round_index, (iterations, bounds) in enumerate(
            zip(iteration_trail(latency, levels, rounds), timeline)
        ):
            level, start, sense_end, transfer_end, decode_end, t = bounds
            round_span = op.span(
                "sensing_round", start, round=round_index, extra_levels=level
            )
            round_span.span("sense", start).end(sense_end)
            round_span.span("transfer", sense_end).end(transfer_end)
            round_span.span(
                "ldpc_decode", transfer_end, iterations=iterations
            ).end(decode_end)
            round_span.end(t)
        if breakdown.post_read_us > 0.0:
            op.span("post_read", t).end(t + breakdown.post_read_us)
        op.end(op_start + service)

    def dispatched(self, pending, completion_us, queue_wait_us):
        trace, self._trace = self._trace, None
        if trace is None:
            return
        t0 = pending.t0_us
        wait_span = Span("queue_wait", t0)
        wait_span.end(t0 + queue_wait_us)
        trace.children.insert(0, wait_span)
        self.tracer.finish_request(trace, completion_us)


class AttributionObserver(RunObserver):
    """Post-warmup requests attributed as they are dispatched.

    Collects each request's page operations and GC stalls as the
    records :func:`~repro.obs.attribution.attribute` reads, then offers
    the ``Tracer`` a childless root span that carries the request's
    attribution.  The root has the attrs and times
    :class:`TracerObserver` gives it, and the attribution equals
    attributing that observer's tree.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._ops: list[OpRecord] | None = None
        self._stalls: list[tuple[int, float]] = []

    def arrival(self, pending, time_us):
        if pending.index < self.warmup_count:
            self._ops = None
            return
        self._ops = []
        self._stalls = []

    def gc_drained(self, channel, start_us, drained_us, stall_us):
        if self._ops is not None and stall_us > 0.0:
            # The duration of the stall span [start - stall, start].
            self._stalls.append((channel, start_us - (start_us - stall_us)))

    def op_serviced(
        self, pending, channel, lpn, op_start, service, op_done,
        breakdown, rounds, uncorrectable,
    ):
        ops = self._ops
        if ops is None:
            return
        op_end = op_start + service
        if breakdown is None or breakdown.buffer_hit:
            kind = "buffered_write" if breakdown is None else "buffer_hit_read"
            ops.append(OpRecord(kind, channel, op_start, op_end))
            return
        # Each duration is end minus start, as a span's duration_us is.
        records = []
        for _, start, sense_end, transfer_end, decode_end, t in sensing_timeline(
            self.system.latency, breakdown.provisioned_levels, rounds, op_start
        ):
            records.append(
                (
                    t - start,
                    sense_end - start,
                    transfer_end - sense_end,
                    decode_end - transfer_end,
                )
            )
        post_read = breakdown.post_read_us
        ops.append(
            OpRecord(
                "flash_read", channel, op_start, op_end, uncorrectable,
                tuple(records),
                (t + post_read) - t if post_read > 0.0 else 0.0,
            )
        )

    def dispatched(self, pending, completion_us, queue_wait_us):
        ops, self._ops = self._ops, None
        if ops is None:
            return
        root = _request_root(self.tracer, pending)
        self.tracer.finish_request(root, completion_us)
        root.attribution = attribute(
            root.name, root.attrs["seq"], root.start_us, root.end_us, ops,
            self._stalls,
        )


def observe(
    *, registry=None, tracer=None, recorder=None, channel_telemetry=None
) -> tuple[RunObserver, ...]:
    """The observers of the given instruments, in their canonical order.

    The recorder comes first, so its windows close before anything else
    sees an event and flush before the registry's end-of-run gauges are
    published.  Channel telemetry also writes into the recorder and
    registry given here.
    """
    observers: list[RunObserver] = []
    if recorder is not None:
        observers.append(RecorderObserver(recorder))
    if registry is not None:
        observers.append(RegistryObserver(registry))
    if channel_telemetry is not None:
        observers.append(ChannelObserver(channel_telemetry, recorder, registry))
    if tracer is not None:
        observers.append(TracerObserver(tracer))
    return tuple(observers)
