"""Per-request span trees with bounded-memory sampling.

A :class:`Tracer` records one :class:`Span` tree per traced request:
the root covers the request's whole residency (arrival → completion)
and children decompose it — queue wait, GC stalls, per-channel flash
operations, individual sensing rounds and the LDPC decode inside each
round.  A root may instead carry its request's
:class:`~repro.obs.attribution.RequestAttribution`, computed while the
run was live, and no children: that is how ``repro serve`` keeps every
request.  Times are explicit microsecond values because the simulators
run on *virtual* time; nothing here reads a wall clock.

Memory stays bounded on million-request traces by a two-part sampling
policy: every ``sample_every``-th request is kept unconditionally
(1-in-N head sampling), and a min-heap reservoir additionally keeps
the ``keep_slowest`` longest requests seen so far — the tail is what
the FlexLevel argument is about, so the slowest requests must survive
sampling.  Both parts are deterministic given the same request stream.

Export targets:

* JSONL — one nested span-tree object per line (``write_jsonl``).
* Chrome trace JSON — the ``chrome://tracing`` / Perfetto "trace event
  format" with complete (``"ph": "X"``) events (``write_chrome_trace``).
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Iterator

from repro.errors import ConfigurationError


class Span:
    """One named, timed node of a request's trace tree."""

    __slots__ = ("name", "start_us", "end_us", "attrs", "children", "attribution")

    def __init__(self, name: str, start_us: float, **attrs: Any):
        if start_us < 0:
            raise ConfigurationError(f"span {name!r} starts at {start_us} < 0")
        self.name = name
        self.start_us = float(start_us)
        self.end_us: float | None = None
        self.attrs = attrs
        self.children: list[Span] = []
        # Set on a childless request root attributed while the run was
        # live; attribute_request returns it instead of walking a tree.
        self.attribution = None

    def span(self, name: str, start_us: float, **attrs: Any) -> "Span":
        """Open a nested child span."""
        child = Span(name, start_us, **attrs)
        self.children.append(child)
        return child

    def end(self, end_us: float) -> "Span":
        """Close the span at ``end_us`` (must not precede the start)."""
        if end_us < self.start_us:
            raise ConfigurationError(
                f"span {self.name!r} ends at {end_us} before start "
                f"{self.start_us}"
            )
        self.end_us = float(end_us)
        return self

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (including self) with ``name``."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Tracer:
    """Collects sampled request traces under a bounded-memory policy.

    Parameters
    ----------
    sample_every:
        Keep every N-th finished request (1 = keep all, 0 = disable
        head sampling entirely).
    keep_slowest:
        Size of the always-keep-slowest reservoir; requests that head
        sampling dropped still survive if they are among the K slowest
        seen so far.
    """

    def __init__(self, sample_every: int = 100, keep_slowest: int = 8):
        if sample_every < 0:
            raise ConfigurationError("sample_every must be >= 0")
        if keep_slowest < 0:
            raise ConfigurationError("keep_slowest must be >= 0")
        if sample_every == 0 and keep_slowest == 0:
            raise ConfigurationError(
                "tracer would keep nothing (sample_every=0, keep_slowest=0)"
            )
        self.sample_every = sample_every
        self.keep_slowest = keep_slowest
        self._seq = 0
        self._sampled: list[tuple[int, Span]] = []
        # Min-heap of (duration, seq, span): the root is the *fastest*
        # reservoir member, evicted first.
        self._reservoir: list[tuple[float, int, Span]] = []

    def begin_request(self, name: str, start_us: float, **attrs: Any) -> Span:
        """Open a root span for one request (not yet retained)."""
        return Span(name, start_us, **attrs)

    def finish_request(self, span: Span, end_us: float | None = None) -> bool:
        """Close a root span and apply the sampling policy.

        Returns whether the span is currently retained (a reservoir
        keep may still be evicted by a later, slower request).
        """
        if end_us is not None:
            span.end(end_us)
        if span.end_us is None:
            raise ConfigurationError(f"span {span.name!r} never ended")
        seq = self._seq
        self._seq += 1
        span.attrs.setdefault("seq", seq)
        if self.sample_every and seq % self.sample_every == 0:
            self._sampled.append((seq, span))
            return True
        if self.keep_slowest:
            entry = (span.duration_us, seq, span)
            if len(self._reservoir) < self.keep_slowest:
                heapq.heappush(self._reservoir, entry)
                return True
            if entry > self._reservoir[0]:
                heapq.heapreplace(self._reservoir, entry)
                return True
        return False

    # --- retained traces --------------------------------------------------------

    @property
    def n_seen(self) -> int:
        """Requests offered to the tracer so far."""
        return self._seq

    @property
    def spans(self) -> list[Span]:
        """All retained root spans in arrival (seq) order."""
        merged = {seq: span for seq, span in self._sampled}
        merged.update({seq: span for _, seq, span in self._reservoir})
        return [merged[seq] for seq in sorted(merged)]

    def slowest(self) -> list[Span]:
        """The reservoir's members, slowest first."""
        return [
            span
            for _, _, span in sorted(self._reservoir, key=lambda e: (-e[0], e[1]))
        ]

    # --- export -----------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object (nested span tree) per retained request."""
        return "\n".join(json.dumps(span.to_dict()) for span in self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            text = self.to_jsonl()
            if text:
                handle.write(text + "\n")

    def chrome_trace(self, process_name: str = "repro-sim") -> dict[str, Any]:
        """The trace in Chrome's trace-event format.

        Each retained request becomes one "thread" (``tid`` = request
        sequence number) so span nesting renders as a flame graph per
        request.
        """
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for root in self.spans:
            tid = root.attrs.get("seq", 0)
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": f"request {tid}"},
                }
            )
            for span in root.walk():
                trace_events.append(
                    {
                        "name": span.name,
                        "cat": "sim",
                        "ph": "X",
                        "ts": span.start_us,
                        "dur": span.duration_us,
                        "pid": 1,
                        "tid": tid,
                        "args": {
                            k: v for k, v in span.attrs.items() if k != "seq"
                        },
                    }
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, process_name: str = "repro-sim") -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(process_name), handle)


def spans_from_chrome_trace(trace: dict) -> list[Span]:
    """Rebuild root :class:`Span` trees from a Chrome trace export.

    The inverse of :meth:`Tracer.chrome_trace` for the complete
    (``"ph": "X"``) events: each ``tid`` is one retained request, and
    nesting is reconstructed from interval containment in *stream
    order* — the exporter writes each request's spans depth-first, so
    every parent precedes its children even where sibling operations on
    different channels overlap in time (a time-sorted reconstruction
    could not tell those apart).  Span attrs come back from the event
    ``args`` (the ``seq`` attr is restored from the ``tid``), which is
    what lets :func:`repro.obs.attribution.attribute_request` run on an
    exported trace file exactly as on the live trees.
    """
    by_tid: dict[int, list[dict]] = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        for key in ("ts", "dur", "tid"):
            if key not in event:
                raise ConfigurationError(
                    f"complete event {event.get('name')!r} lacks {key!r}"
                )
        by_tid.setdefault(event["tid"], []).append(event)
    roots: list[Span] = []
    for tid in sorted(by_tid):
        stack: list[Span] = []
        for event in by_tid[tid]:
            span = Span(event["name"], event["ts"])
            span.attrs.update(event.get("args", {}))
            span.end(event["ts"] + event["dur"])
            while stack and not (
                span.start_us >= stack[-1].start_us
                and span.end_us <= stack[-1].end_us
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                span.attrs.setdefault("seq", tid)
                roots.append(span)
            stack.append(span)
    return roots
