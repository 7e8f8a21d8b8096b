"""Per-channel service frontiers and incremental background GC.

Each flash channel is an independent FIFO server: it has a *frontier*
(the virtual time it finishes all committed work), a background backlog
(GC, buffer-flush programs, AccessEval migrations assigned to it), and
busy-time accounting for utilization reporting.

Background work is granule-quantized: the backlog drains into the idle
gap before the next request on the channel, and if any backlog remains
the request stalls for at most one non-preemptible granule.  With one
channel this is the single FIFO queue of ``tests/sim/reference.py``
step for step — the equivalence the DES tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class ChannelState:
    """One channel's server state and counters."""

    frontier_us: float = 0.0
    backlog_us: float = 0.0
    busy_us: float = 0.0
    gc_drained_us: float = 0.0
    ops_committed: int = 0


@dataclass
class DrainReport:
    """What :meth:`ChannelScheduler.admit` did to the channel's backlog."""

    start_us: float
    drained_us: float = 0.0
    stall_us: float = 0.0


class ChannelScheduler:
    """Routes page operations onto per-channel FIFO frontiers."""

    def __init__(self, n_channels: int, gc_granule_us: float):
        if n_channels < 1:
            raise ConfigurationError("need at least one channel")
        if gc_granule_us < 0:
            raise ConfigurationError("negative GC granule")
        self.n_channels = n_channels
        self.gc_granule_us = gc_granule_us
        self.channels = [ChannelState() for _ in range(n_channels)]

    def admit(self, channel: int, arrival_us: float) -> DrainReport:
        """Prepare a channel for a request arriving at ``arrival_us``.

        Drains the channel's background backlog into the idle gap
        before the arrival (GC fills idle time), then — if backlog
        remains — charges the at-most-one-granule stall of catching the
        channel mid-granule.  Returns when service can start and how
        much background work ran.
        """
        state = self.channels[channel]
        idle = max(0.0, arrival_us - state.frontier_us)
        drained = min(state.backlog_us, idle)
        state.backlog_us -= drained
        state.frontier_us += drained
        start = max(arrival_us, state.frontier_us)
        stall = 0.0
        if state.backlog_us > 0.0:
            stall = min(state.backlog_us, self.gc_granule_us)
            state.backlog_us -= stall
            start += stall
        state.frontier_us = start
        state.busy_us += drained + stall
        state.gc_drained_us += drained + stall
        return DrainReport(start_us=start, drained_us=drained, stall_us=stall)

    def commit(self, channel: int, service_us: float) -> float:
        """Append one page operation to the channel; returns completion."""
        if service_us < 0:
            raise ConfigurationError(f"negative service time: {service_us}")
        state = self.channels[channel]
        state.frontier_us += service_us
        state.busy_us += service_us
        state.ops_committed += 1
        return state.frontier_us

    def add_background(self, total_us: float) -> None:
        """Spread new background (GC) work evenly across channels."""
        if total_us < 0:
            raise ConfigurationError(f"negative background work: {total_us}")
        if total_us == 0.0:
            return
        share = total_us / self.n_channels
        for state in self.channels:
            state.backlog_us += share

    @property
    def residual_backlog_us(self) -> float:
        """Background work still queued across all channels."""
        return sum(state.backlog_us for state in self.channels)

    @property
    def total_ops_committed(self) -> int:
        return sum(state.ops_committed for state in self.channels)

    def busy_times_us(self) -> list[float]:
        """Per-channel busy time (foreground service + drained GC)."""
        return [state.busy_us for state in self.channels]
