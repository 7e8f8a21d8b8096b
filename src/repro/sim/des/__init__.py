"""Discrete-event multi-channel simulation (`repro.sim.des`).

An event-heap simulator with per-channel request queues, incremental
background GC that fills idle gaps per channel, and a stochastic
read-retry model — the machinery needed to measure tail latency
(p50/p95/p99) and per-channel utilization instead of just means.
"""

from repro.sim.des.engine import DesSimulationEngine
from repro.sim.des.events import Event, EventHeap, EventKind
from repro.sim.des.ingress import PendingRequest, RequestSource, TraceSource
from repro.sim.des.observers import RunObserver, observe
from repro.sim.des.retry import ReadRetryConfig, ReadRetryModel, RetryOutcome
from repro.sim.des.scheduler import ChannelScheduler, ChannelState, DrainReport

__all__ = [
    "DesSimulationEngine",
    "Event",
    "EventHeap",
    "EventKind",
    "PendingRequest",
    "RequestSource",
    "TraceSource",
    "RunObserver",
    "observe",
    "ReadRetryConfig",
    "ReadRetryModel",
    "RetryOutcome",
    "ChannelScheduler",
    "ChannelState",
    "DrainReport",
]
