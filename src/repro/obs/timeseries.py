"""Virtual-time windowed telemetry series.

One end-of-run metric snapshot cannot show a long run's *shape*: when
the GC backlog stopped fitting into idle time, when retry rates spiked,
when the drive degraded to read-only.  A :class:`WindowedRecorder`
buckets observations into fixed windows of **simulated** time
(configurable, default 1 ms) so the engine emits a time-resolved view
— queue depth, in-flight operations per channel, retry rate, GC and
scrub activity, degraded-mode state — at O(windows × series) memory.

Two recording verbs share one per-window cell type:

* :meth:`WindowedRecorder.add` — counter-like accumulation (arrivals,
  retry rounds, drained GC microseconds).  The window's ``sum`` is the
  rate numerator.
* :meth:`WindowedRecorder.sample` — gauge-like observation (queue
  depth, degraded flag).  ``mean``/``last``/``min``/``max`` describe
  the window.

Everything is keyed by virtual time, so a fixed seed and config yield
byte-identical exports — the determinism the `repro explain` artifact
relies on.  Series names follow the dotted metric-namespace grammar of
:mod:`repro.obs.metrics`.

Window-close hooks: online consumers (the health monitor in
:mod:`repro.obs.monitor`) register a callback with
:meth:`WindowedRecorder.add_close_hook`; the engine drives
:meth:`WindowedRecorder.advance` with the event loop's virtual "now"
and every window whose right edge has been passed closes exactly once,
in index order, gaps included.  The engine only ever records
observations at times at or after the current event time, so a closed
window is *final* — its cells can never change — which is what makes
in-flight consumption deterministic.  :meth:`WindowedRecorder.flush`
closes the trailing partial window at end of run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.metrics import _check_name

#: Default window width: 1 ms of simulated time.
DEFAULT_WINDOW_US = 1000.0


@dataclass
class WindowCell:
    """Aggregates of one series within one window."""

    n: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    last: float = 0.0

    def observe(self, value: float) -> None:
        self.n += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0


class WindowedRecorder:
    """Buckets virtual-time observations into fixed windows.

    Parameters
    ----------
    window_us:
        Window width in simulated microseconds (> 0).
    origin_us:
        Virtual time of window 0's left edge; observations before the
        origin are rejected (the simulators never go backwards).
    """

    def __init__(
        self, window_us: float = DEFAULT_WINDOW_US, origin_us: float = 0.0
    ):
        if not window_us > 0.0:
            raise ConfigurationError(f"window_us must be > 0, got {window_us}")
        if origin_us < 0.0:
            raise ConfigurationError(f"negative origin_us: {origin_us}")
        self.window_us = float(window_us)
        self.origin_us = float(origin_us)
        self._series: dict[str, dict[int, WindowCell]] = {}
        # Close-hook machinery: windows [0, _closed_through) have been
        # closed (hooks fired); _max_seen_index tracks the rightmost
        # populated window so flush() can close the final partial one.
        self._close_hooks: list[Callable[[int, float, float], None]] = []
        self._flush_hooks: list[Callable[[], None]] = []
        self._closed_through = 0
        self._max_seen_index = -1
        self._flushed = False

    def window_index(self, time_us: float) -> int:
        """The window an instant falls into (left-closed intervals)."""
        if time_us < self.origin_us:
            raise ConfigurationError(
                f"time {time_us} precedes window origin {self.origin_us}"
            )
        return int((time_us - self.origin_us) // self.window_us)

    def _cell(self, series: str, time_us: float) -> WindowCell:
        windows = self._series.get(series)
        if windows is None:
            _check_name(series)
            windows = self._series[series] = {}
        index = self.window_index(time_us)
        if self._close_hooks and index < self._closed_through:
            # Closed windows are final by contract: the engine never
            # record at a time before the current event.  A late write
            # means an engine bug that would silently corrupt online
            # consumers, so fail loudly and deterministically.
            raise ConfigurationError(
                f"series {series!r}: observation at {time_us} lands in "
                f"window {index}, already closed (< {self._closed_through})"
            )
        if index > self._max_seen_index:
            self._max_seen_index = index
        cell = windows.get(index)
        if cell is None:
            cell = windows[index] = WindowCell()
        return cell

    def add(self, series: str, time_us: float, amount: float = 1.0) -> None:
        """Accumulate a counter-like observation into its window."""
        self._cell(series, time_us).observe(amount)

    def sample(self, series: str, time_us: float, value: float) -> None:
        """Record a gauge-like observation into its window."""
        self._cell(series, time_us).observe(value)

    # --- window-close hooks -----------------------------------------------------

    def add_close_hook(
        self, hook: Callable[[int, float, float], None]
    ) -> None:
        """Register ``hook(index, start_us, end_us)`` for window closes.

        Hooks fire from :meth:`advance` / :meth:`flush`, once per
        window in strictly ascending index order, empty gap windows
        included.  Attach hooks *before* the run: windows already
        closed never re-fire.
        """
        self._close_hooks.append(hook)

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook()`` for the end-of-run :meth:`flush`.

        Flush hooks fire exactly once, after every remaining window —
        including the trailing partial one — has closed.  They exist
        for *terminal* consumers: verdicts that must be delivered even
        when the final window never filled (a crashed or truncated run),
        e.g. the health monitor's terminal degraded-mode alert.
        """
        self._flush_hooks.append(hook)

    @property
    def closed_through(self) -> int:
        """Exclusive upper bound of the closed window indices."""
        return self._closed_through

    def advance(self, now_us: float) -> None:
        """Drive the virtual clock; close every window now has passed.

        Engines call this with each event's time (monotonic).  Windows
        strictly before the one containing ``now_us`` close — the
        engines only record at times >= the current event time, so
        those windows can no longer change.  A no-op without hooks.
        """
        if not self._close_hooks:
            return
        target = self.window_index(now_us)
        if target > self._closed_through:
            self._close_to(target)

    def flush(self) -> None:
        """Close every remaining populated window (end of run).

        The final partial window — populated but never passed by
        ``advance`` — closes here, so consumers see the complete
        timeline; registered flush hooks then fire exactly once.
        Idempotent; a no-op without hooks.
        """
        if self._close_hooks and self._max_seen_index + 1 > self._closed_through:
            self._close_to(self._max_seen_index + 1)
        if not self._flushed:
            self._flushed = True
            for hook in self._flush_hooks:
                hook()

    def _close_to(self, target: int) -> None:
        while self._closed_through < target:
            index = self._closed_through
            self._closed_through += 1
            start_us = self.origin_us + index * self.window_us
            for hook in self._close_hooks:
                hook(index, start_us, start_us + self.window_us)

    # --- inspection -------------------------------------------------------------

    def cell(self, series: str, index: int) -> WindowCell | None:
        """One series' cell in one window (None when unpopulated)."""
        return self._series.get(series, {}).get(index)

    def series_names(self) -> list[str]:
        return sorted(self._series)

    def total(self, series: str) -> float:
        """Sum over every window of one series (0 for unknown series)."""
        return sum(
            cell.sum for cell in self._series.get(series, {}).values()
        )

    def rows(self, series: str) -> list[dict[str, float]]:
        """One dict per populated window, ascending window order."""
        windows = self._series.get(series, {})
        out = []
        for index in sorted(windows):
            cell = windows[index]
            out.append(
                {
                    "window": index,
                    "start_us": self.origin_us + index * self.window_us,
                    "n": cell.n,
                    "sum": cell.sum,
                    "mean": cell.mean(),
                    "min": cell.min,
                    "max": cell.max,
                    "last": cell.last,
                }
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        """Deterministic (sorted) JSON-serialisable export."""
        return {
            "window_us": self.window_us,
            "origin_us": self.origin_us,
            "series": {
                name: self.rows(name) for name in self.series_names()
            },
        }
