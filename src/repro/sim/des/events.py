"""Event types and the virtual-time event heap of the DES engine.

A discrete-event simulation is a priority queue of timestamped events
popped in virtual-time order.  The heap enforces the core DES
invariant — virtual time never runs backwards — and ties are broken by
insertion order so simultaneous events (a completion and an arrival at
the same microsecond) replay deterministically.

Only events that change engine state are scheduled: a request's
arrival and its completion.  Page-operation completions and background
GC drains are decided at dispatch and live in the channel scheduler's
frontiers, so every request costs exactly two heap events.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import NamedTuple

from repro.errors import SimulationError


class EventKind(Enum):
    """What happened at an event's timestamp."""

    ARRIVAL = "arrival"
    REQUEST_COMPLETE = "request-complete"


class Event(NamedTuple):
    """One timestamped simulation event.

    Attributes
    ----------
    time_us:
        Virtual time the event fires.
    kind:
        Event type.
    request_index:
        Emission index of the request this event belongs to.
    value_us:
        The response time for ``REQUEST_COMPLETE``; unused for
        ``ARRIVAL``.
    """

    time_us: float
    kind: EventKind
    request_index: int = -1
    value_us: float = 0.0


class EventHeap:
    """Min-heap of events keyed on (virtual time, insertion order).

    :meth:`push` and :meth:`pop` raise
    :class:`~repro.errors.SimulationError` if an event would move
    virtual time backwards — the invariant every DES conservation test
    leans on.
    """

    __slots__ = ("_heap", "_sequence", "now_us", "popped")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self.now_us = 0.0
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        """Schedule an event; it may not precede the current time."""
        if event.time_us < self.now_us:
            raise SimulationError(
                f"event {event.kind.value} scheduled at {event.time_us} "
                f"before current time {self.now_us}"
            )
        heapq.heappush(self._heap, (event.time_us, self._sequence, event))
        self._sequence += 1

    def pop(self) -> Event:
        """Next event in virtual-time order; advances the clock."""
        if not self._heap:
            raise SimulationError("pop from an empty event heap")
        time_us, _, event = heapq.heappop(self._heap)
        if time_us < self.now_us:
            raise SimulationError(
                f"virtual time moved backwards: {time_us} < {self.now_us}"
            )
        self.now_us = time_us
        self.popped += 1
        return event
