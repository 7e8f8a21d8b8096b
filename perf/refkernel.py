"""Fixed pure-Python reference kernel for host-speed normalisation.

The benchmark times this kernel immediately before and after every
timed repetition and reports host-time metrics relative to it, so a
busy or throttled host, which slows the kernel and the simulator alike,
cancels out of the ratio.  The kernel mixes the interpreter work the
simulator itself does: dict updates, ``heapq`` pushes and pops, and
small-object allocation.

Never change this file: every recorded normalised number is expressed
in units of its run time.  It imports nothing from ``repro``, so no
change to the program under test can change the kernel.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Nominal kernel duration in seconds.  A normalised rate is the raw
#: rate times ``measured kernel seconds / NOMINAL_S``; a normalised
#: duration is the raw duration times ``NOMINAL_S / measured seconds``.
NOMINAL_S = 0.15

#: Loop iterations of one kernel run.
ITERATIONS = 150_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def run(iterations: int = ITERATIONS) -> int:
    """Run the kernel once and return its checksum."""
    state = 12345
    table: dict[int, _Item] = {}
    heap: list[tuple[int, int]] = []
    checksum = 0
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 4095
        item = table.get(key)
        if item is None:
            table[key] = _Item(key, i)
        else:
            item.value += i
        heapq.heappush(heap, (state, i))
        if len(heap) > 512:
            top, _ = heapq.heappop(heap)
            checksum ^= top
    return checksum + len(table) + len(heap)


def timed() -> float:
    """Seconds one kernel run takes on this host right now.

    The cyclic garbage collector is off while the kernel runs: a
    collection would walk every object the caller holds, tying the
    kernel's time to the caller's heap instead of the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
