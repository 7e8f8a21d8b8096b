"""Critical-path latency attribution of requests.

FlexLevel's whole argument is about *where* read latency goes — extra
sensing rounds and LDPC decode iterations versus media sense, transfer
and queueing (paper §2, Fig. 6).  This module turns requests into that
drill-down: every request's end-to-end latency is decomposed *exactly*
onto a fixed cause taxonomy, and per-request records aggregate into
blame tables bucketed by percentile band, so "what fraction of p99 is
retry sensing vs. GC stall?" is one report instead of a manual
trace-reading exercise.

One rule, :func:`attribute`, does the decomposition from flat records:
the request's span of time, its page operations (with each flash
read's sensing rounds and post-read work) and its GC stalls.
:func:`attribute_request` flattens a retained
:class:`~repro.obs.tracing.Span` tree into those records; ``repro
serve`` collects them from the run's events as each request is
dispatched (:class:`~repro.sim.des.observers.AttributionObserver`) and
keeps only a childless root that carries the result.

Cause taxonomy
--------------

``queue_wait``
    Waiting for the critical channel to become free (dispatch delay).
``gc_stall``
    Mid-granule background-GC stall charged on the critical channel.
``sense`` / ``transfer`` / ``ldpc_decode``
    The three components of the *first* sensing round of each flash
    read on the critical path — the retry-free cost of the read.
``retry``
    Every sensing round beyond the first (read-retry overhead: the
    rounds an exact-provisioning system would not have needed).
``uncorrectable``
    Retry rounds of reads that terminated uncorrectable — ladder time
    burned without ever decoding (faults enabled only).
``post_read``
    Post-read work charged on the critical path (every shipped system
    charges none: AccessEval migrations run as background work).
``buffer_hit``
    Reads answered by the write buffer (no flash sensing).
``buffered_write``
    Write service (host acknowledged at buffer insertion).
``service``
    Always zero: no span maps to it.  It stays in the taxonomy so
    blame-table artifacts keep their key set byte for byte.
``other``
    Residual: float round-off and any trace time no rule claims.  The
    decomposition is exact by construction — ``other`` absorbs what is
    left so the causes always sum to the root span duration.

Critical-path semantics: a multi-page request fans out over channels;
channels run in parallel and the request completes when the slowest
channel finishes.  Attribution walks that *critical* channel only (the
one whose last page operation completes last), so the attributed causes
sum exactly to the end-to-end latency; page-operation time absorbed by
channel parallelism is reported separately as ``off_path_us`` and never
inflates blame fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracing import Span

#: The fixed cause taxonomy, in report order.
CAUSES: tuple[str, ...] = (
    "queue_wait",
    "gc_stall",
    "sense",
    "transfer",
    "ldpc_decode",
    "retry",
    "uncorrectable",
    "post_read",
    "buffer_hit",
    "buffered_write",
    "service",
    "other",
)

#: Root-child span names that carry page-operation service time.
_OP_NAMES = frozenset({"flash_read", "buffer_hit_read", "buffered_write"})

#: Percentile-band edges of the aggregate blame tables.
BAND_EDGES: tuple[float, ...] = (50.0, 95.0, 99.0)
BAND_NAMES: tuple[str, ...] = ("p0_50", "p50_95", "p95_99", "p99_plus")


@dataclass
class RequestAttribution:
    """One request's exact end-to-end latency decomposition.

    ``causes`` maps every taxonomy cause to its attributed duration;
    the values sum to ``duration_us`` (up to float round-off, which the
    ``other`` cause absorbs).  ``off_path_us`` is page-operation time
    on non-critical channels — real flash work, but hidden from the
    host by channel parallelism.
    """

    name: str
    seq: int
    start_us: float
    duration_us: float
    causes: dict[str, float] = field(default_factory=dict)
    retry_rounds: int = 0
    uncorrectable: bool = False
    buffer_hit: bool = False
    n_channels: int = 0
    off_path_us: float = 0.0

    @property
    def is_write(self) -> bool:
        return self.name == "write_request"

    @property
    def attributed_us(self) -> float:
        """Sum of the attributed causes (== ``duration_us``)."""
        return sum(self.causes.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seq": self.seq,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "causes": {k: self.causes[k] for k in sorted(self.causes)},
            "retry_rounds": self.retry_rounds,
            "uncorrectable": self.uncorrectable,
            "buffer_hit": self.buffer_hit,
            "n_channels": self.n_channels,
            "off_path_us": self.off_path_us,
        }


class OpRecord(NamedTuple):
    """One page operation of a request, as the attribution rule reads it.

    ``kind`` is ``flash_read``, ``buffer_hit_read`` or
    ``buffered_write``.  A flash read lists its sensing rounds in order,
    each as ``(round_us, sense_us, transfer_us, decode_us)`` (the first
    is the retry-free round), and its post-read duration.
    """

    kind: str
    channel: Any
    start_us: float
    end_us: float
    uncorrectable: bool = False
    rounds: tuple[tuple[float, float, float, float], ...] = ()
    post_read_us: float = 0.0


def attribute(
    name: str,
    seq: int,
    start_us: float,
    end_us: float,
    ops: Sequence[OpRecord],
    stalls: Iterable[tuple[Any, float]],
) -> RequestAttribution:
    """Decompose one request onto the cause taxonomy.

    The one attribution rule: ``ops`` are the request's page operations
    in dispatch order and ``stalls`` its ``(channel, duration_us)`` GC
    stalls.  :func:`attribute_request` reads them off a span tree, and
    ``repro serve`` collects them from the run's events.
    """
    duration_us = end_us - start_us
    causes = dict.fromkeys(CAUSES, 0.0)
    record = RequestAttribution(
        name=name, seq=seq, start_us=start_us, duration_us=duration_us,
        causes=causes,
    )
    if not ops:
        causes["queue_wait"] = duration_us
        return record
    groups: dict[Any, list[OpRecord]] = {}
    for op in ops:
        groups.setdefault(op.channel, []).append(op)
    record.n_channels = len(groups)
    ends = {
        key: max(op.end_us for op in group) for key, group in groups.items()
    }
    # The critical channel is the one whose last page operation
    # completes last; exact-end ties break to the smallest channel id.
    critical = max(
        ends, key=lambda k: (ends[k], -(k if isinstance(k, int) else -1))
    )
    crit_ops = sorted(groups[critical], key=lambda op: (op.start_us, op.end_us))
    crit_start = crit_ops[0].start_us
    stall_us = sum(d for channel, d in stalls if channel == critical)
    wait_us = crit_start - start_us - stall_us
    if wait_us < 0.0:
        # Degenerate trees (stall span wider than the pre-service gap):
        # keep the sum exact by ceding the excess back to the stall.
        stall_us += wait_us
        wait_us = 0.0
    causes["queue_wait"] += wait_us
    causes["gc_stall"] += stall_us
    cursor = crit_start
    for op in crit_ops:
        if op.start_us > cursor:
            causes["other"] += op.start_us - cursor
        if op.kind == "flash_read":
            retry_cause = "uncorrectable" if op.uncorrectable else "retry"
            claimed = 0.0
            for index, (round_us, sense, transfer, decode) in enumerate(
                op.rounds
            ):
                claimed += round_us
                if index == 0:
                    causes["sense"] += sense
                    causes["transfer"] += transfer
                    causes["ldpc_decode"] += decode
                    causes["other"] += round_us - (sense + transfer + decode)
                else:
                    record.retry_rounds += 1
                    causes[retry_cause] += round_us
            claimed += op.post_read_us
            causes["post_read"] += op.post_read_us
            causes["other"] += (op.end_us - op.start_us) - claimed
            record.uncorrectable = record.uncorrectable or op.uncorrectable
        elif op.kind == "buffer_hit_read":
            causes["buffer_hit"] += op.end_us - op.start_us
            record.buffer_hit = True
        else:
            causes["buffered_write"] += op.end_us - op.start_us
        cursor = max(cursor, op.end_us)
    if end_us > cursor:
        causes["other"] += end_us - cursor
    record.off_path_us = sum(
        op.end_us - op.start_us
        for key, group in groups.items()
        if key != critical
        for op in group
    )
    return record


def _op_record(op: Span) -> OpRecord:
    """A page-operation span as the rule's record; children the rule
    has no name for fall into the read's ``other`` residual."""
    channel = op.attrs.get("channel")
    if op.name != "flash_read":
        return OpRecord(op.name, channel, op.start_us, op.end_us)
    rounds = []
    post_read_us = 0.0
    for child in op.children:
        if child.name == "sensing_round":
            parts = {part.name: part.duration_us for part in child.children}
            rounds.append(
                (
                    child.duration_us,
                    parts.get("sense", 0.0),
                    parts.get("transfer", 0.0),
                    parts.get("ldpc_decode", 0.0),
                )
            )
        elif child.name == "post_read":
            post_read_us += child.duration_us
    return OpRecord(
        "flash_read", channel, op.start_us, op.end_us,
        bool(op.attrs.get("uncorrectable", False)), tuple(rounds),
        post_read_us,
    )


def attribute_request(root: Span) -> RequestAttribution:
    """Decompose one request root span onto the cause taxonomy.

    A root that already carries its attribution (``repro serve``
    attributes each request while the run is live) returns it.  A span
    tree — live, or reconstructed from a Chrome trace export
    (:func:`~repro.obs.tracing.spans_from_chrome_trace`) — is flattened
    into the records :func:`attribute` reads; the attribution depends
    only on span names, times and attrs.
    """
    if root.end_us is None:
        raise ConfigurationError(f"request span {root.name!r} never ended")
    if root.attribution is not None:
        return root.attribution
    ops = []
    stalls = []
    for child in root.children:
        if child.name in _OP_NAMES:
            ops.append(_op_record(child))
        elif child.name == "gc_stall":
            stalls.append((child.attrs.get("channel"), child.duration_us))
    return attribute(
        root.name,
        int(root.attrs.get("seq", root.attrs.get("index", 0))),
        root.start_us,
        root.end_us,
        ops,
        stalls,
    )


# ---------------------------------------------------------------------------
# Aggregate blame tables
# ---------------------------------------------------------------------------


@dataclass
class BandBlame:
    """Aggregate blame over the requests of one percentile band."""

    name: str
    n_requests: int = 0
    total_us: float = 0.0
    blame_us: dict[str, float] = field(
        default_factory=lambda: {cause: 0.0 for cause in CAUSES}
    )

    def add(self, record: RequestAttribution) -> None:
        self.n_requests += 1
        self.total_us += record.duration_us
        for cause, value in record.causes.items():
            self.blame_us[cause] += value

    def fractions(self) -> dict[str, float]:
        """Each cause's share of the band's total latency (sums to 1)."""
        if self.total_us <= 0.0:
            return {cause: 0.0 for cause in CAUSES}
        attributed = sum(self.blame_us.values())
        return {
            cause: self.blame_us[cause] / attributed
            for cause in CAUSES
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "total_us": self.total_us,
            "blame_us": {k: self.blame_us[k] for k in CAUSES},
            "blame_fraction": self.fractions(),
        }


@dataclass
class AttributionReport:
    """Per-request attributions plus percentile-banded blame tables.

    Band edges come from the retained requests' own response-time
    distribution (``np.percentile`` over exact durations), so the p99+
    band is the same tail the ``sim.read.response_us.p999`` metric
    summarises.
    """

    requests: list[RequestAttribution] = field(default_factory=list)
    thresholds_us: dict[str, float] = field(default_factory=dict)
    bands: dict[str, BandBlame] = field(default_factory=dict)
    overall: BandBlame = field(default_factory=lambda: BandBlame("all"))

    @staticmethod
    def from_spans(spans: Iterable[Span]) -> "AttributionReport":
        """Attribute every retained root span and aggregate the blame."""
        report = AttributionReport()
        report.requests = [attribute_request(span) for span in spans]
        report.bands = {name: BandBlame(name) for name in BAND_NAMES}
        durations = [record.duration_us for record in report.requests]
        if durations:
            edges = np.percentile(np.asarray(durations), BAND_EDGES).tolist()
        else:
            edges = [0.0 for _ in BAND_EDGES]
        report.thresholds_us = {
            f"p{q:g}": edge for q, edge in zip(BAND_EDGES, edges)
        }
        for record in report.requests:
            report.overall.add(record)
            report.bands[report.band_of(record.duration_us)].add(record)
        return report

    def band_of(self, duration_us: float) -> str:
        """The percentile band a response time falls into."""
        for name, threshold in zip(BAND_NAMES, self.thresholds_us.values()):
            if duration_us <= threshold:
                return name
        return BAND_NAMES[-1]

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def total_us(self) -> float:
        """Summed end-to-end latency — reconciles with the response-time
        histograms' ``.sum`` when the tracer retained every request."""
        return self.overall.total_us

    @property
    def uncorrectable_requests(self) -> int:
        return sum(1 for r in self.requests if r.uncorrectable)

    @property
    def off_path_us(self) -> float:
        return sum(r.off_path_us for r in self.requests)

    def to_dict(self, include_requests: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n_requests": self.n_requests,
            "total_us": self.total_us,
            "off_path_us": self.off_path_us,
            "uncorrectable_requests": self.uncorrectable_requests,
            "thresholds_us": dict(self.thresholds_us),
            "causes": list(CAUSES),
            "bands": {
                **{name: self.bands[name].to_dict() for name in BAND_NAMES},
                "all": self.overall.to_dict(),
            },
        }
        if include_requests:
            out["requests"] = [r.to_dict() for r in self.requests]
        return out


def diff_reports(
    candidate: AttributionReport | Mapping[str, Any],
    baseline: AttributionReport | Mapping[str, Any],
) -> dict[str, Any]:
    """Blame-fraction deltas (candidate − baseline) per band and cause.

    The comparison the paper's Fig. 6 makes: which causes *shift* when
    FlexLevel replaces the baseline, band by band.  Positive delta =
    the candidate spends a larger latency share on that cause.
    """
    cand = (
        candidate.to_dict()
        if isinstance(candidate, AttributionReport)
        else dict(candidate)
    )
    base = (
        baseline.to_dict()
        if isinstance(baseline, AttributionReport)
        else dict(baseline)
    )
    bands: dict[str, Any] = {}
    for band in (*BAND_NAMES, "all"):
        cand_band = cand["bands"][band]
        base_band = base["bands"][band]
        bands[band] = {
            "total_us_delta": cand_band["total_us"] - base_band["total_us"],
            "blame_fraction_delta": {
                cause: (
                    cand_band["blame_fraction"][cause]
                    - base_band["blame_fraction"][cause]
                )
                for cause in CAUSES
            },
        }
    return {
        "total_us_delta": cand["total_us"] - base["total_us"],
        "bands": bands,
    }
