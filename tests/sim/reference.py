"""Single-queue reference model of the trace-driven simulator.

One FIFO server replays the trace: a request starts when it has
arrived and the device is free, its service time is the sum of its
page operations, and background work (GC, buffer flushes, AccessEval
migrations) drains into the idle gaps between requests, stalling an
arrival for at most one non-preemptible granule.  This is the queueing
model behind the paper's Fig. 6 / Fig. 7 response-time gaps, written
out with no event heap, no channels, no retry model and no observers.

:class:`repro.sim.DesSimulationEngine` with ``n_channels=1`` and
``retry_model=None`` must reproduce it request for request; the DES
tests use it as a differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.baselines.systems import StorageSystem
from repro.traces.schema import TraceRecord


@dataclass
class SingleQueueRun:
    """Post-warmup responses (in completion order) and final counters."""

    read_responses_us: list[float]
    write_responses_us: list[float]
    stats: dict[str, float]


def run_single_queue(
    system: StorageSystem,
    records: Iterable[TraceRecord],
    warmup_fraction: float = 0.1,
    gc_granule_us: float | None = None,
) -> SingleQueueRun:
    """Replay ``records`` through one FIFO server on ``system``."""
    records = list(records)
    if gc_granule_us is None:
        gc_granule_us = system.config.ssd.timing.program_us
    warmup_count = int(len(records) * warmup_fraction)
    footprint = system.config.footprint_pages
    reads: list[float] = []
    writes: list[float] = []
    device_free_at = 0.0
    backlog_us = 0.0
    for index, record in enumerate(records):
        arrival = record.timestamp_us
        drained = min(backlog_us, max(0.0, arrival - device_free_at))
        backlog_us -= drained
        device_free_at += drained
        start = max(arrival, device_free_at)
        if backlog_us > 0.0:
            stall = min(backlog_us, gc_granule_us)
            backlog_us -= stall
            start += stall
        service = 0.0
        for lpn in record.pages():
            if footprint:
                lpn %= footprint
            if record.is_write:
                service += system.serve_write_page(lpn, start)
            else:
                service += system.read_page_breakdown(lpn, start).service_us
        completion = start + service
        device_free_at = completion
        backlog_us += system.take_background_us()
        if index >= warmup_count:
            (writes if record.is_write else reads).append(completion - arrival)
    stats = system.ssd.stats.snapshot()
    stats["reduced_logical_pages"] = system.ssd.reduced_logical_pages()
    stats["max_pe_cycles"] = system.ssd.max_pe_cycles()
    stats["residual_backlog_us"] = backlog_us
    return SingleQueueRun(reads, writes, stats)
