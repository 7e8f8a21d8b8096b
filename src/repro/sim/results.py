"""Aggregated simulation results."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram, merged_quantile

#: Exact response-time samples kept per run before the result falls
#: back to its streaming histograms.  Million-request traces then cost
#: O(histogram buckets), not O(requests), while short runs (and every
#: pinned regression test) still see exact percentiles.
DEFAULT_SAMPLE_CAP = 65_536


def response_histogram(name: str) -> Histogram:
    """The shared response-time histogram layout (0.5 us – 50 s).

    Both per-kind histograms of a result use the same layout so their
    union quantile (:func:`repro.obs.metrics.merged_quantile`) is
    well-defined; the 4 % geometric bucket growth bounds the streaming
    percentile error at 4 % relative.
    """
    return Histogram(name, min_value=0.5, max_value=5.0e7, growth=1.04)


@dataclass
class DesSimulationResult:
    """Response times, device counters and channel state from one run.

    Response times are per *request* (not per page), in microseconds.
    Every response is streamed into a fixed-layout log-bucket histogram
    (O(buckets) memory); the exact per-request lists are additionally
    kept only while the run stays under ``sample_cap`` requests, after
    which percentiles switch to the streaming estimate.

    Attributes
    ----------
    channel_busy_us:
        Per-channel busy time (foreground page operations plus the
        background-GC work drained on that channel), microseconds.
    makespan_us:
        Virtual time from the first arrival to the last completion.
    retry_rounds_histogram:
        ``{extra retry rounds: flash reads}`` — 0 means the first
        sensing round decoded.
    uncorrectable_reads:
        Flash reads that exhausted the sensing ladder and failed the
        final round (terminal outcome; only nonzero with fault
        injection enabled).
    uncorrectable_by_channel:
        ``{channel: uncorrectable reads}`` for the channels that saw
        any.
    """

    system_name: str
    workload_name: str
    read_responses_us: list[float] = field(default_factory=list)
    write_responses_us: list[float] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    sample_cap: int = DEFAULT_SAMPLE_CAP
    read_hist: Histogram = field(
        default_factory=lambda: response_histogram("sim.read.response_us")
    )
    write_hist: Histogram = field(
        default_factory=lambda: response_histogram("sim.write.response_us")
    )
    # Wall-clock cost of producing this result (set by the engine).
    # Deliberately NOT part of summary()/stats: those are simulated-time
    # outputs that must stay byte-identical across machines; wall data
    # travels through manifests and profile artifacts instead.
    wall_loop_s: float = 0.0
    wall_events: int = 0
    wall_requests: int = 0
    # Sudden-power-off outcome (repro.faults.power): set by the engine
    # when a crash point cut the run short.  The matching stats keys
    # ("crashed", "aborted_requests") are gated on an actual crash so
    # crash-free summaries stay byte-identical to pre-SPO builds.
    crashed: bool = False
    crash_us: float | None = None
    aborted_requests: int = 0
    channel_busy_us: list[float] = field(default_factory=list)
    makespan_us: float = 0.0
    retry_rounds_histogram: dict[int, int] = field(default_factory=dict)
    uncorrectable_reads: int = 0
    uncorrectable_by_channel: dict[int, int] = field(default_factory=dict)

    def record(self, is_write: bool, response_us: float) -> None:
        """Record one request's response time."""
        if response_us < 0:
            raise ConfigurationError(f"negative response time: {response_us}")
        keep_exact = (
            len(self.read_responses_us) + len(self.write_responses_us)
            < self.sample_cap
        )
        if is_write:
            self.write_hist.observe(response_us)
            if keep_exact:
                self.write_responses_us.append(response_us)
        else:
            self.read_hist.observe(response_us)
            if keep_exact:
                self.read_responses_us.append(response_us)

    # --- aggregates -------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return self.read_hist.count + self.write_hist.count

    @property
    def exact_samples(self) -> bool:
        """Whether the per-request lists still hold every response."""
        return (
            len(self.read_responses_us) + len(self.write_responses_us)
            == self.n_requests
        )

    def wall_events_per_s(self) -> float:
        """Event-loop iterations per wall-clock second (0 if unknown)."""
        if self.wall_loop_s <= 0.0:
            return 0.0
        return self.wall_events / self.wall_loop_s

    def wall_requests_per_s(self) -> float:
        """Completed requests (warmup included) per wall-clock second."""
        if self.wall_loop_s <= 0.0:
            return 0.0
        return self.wall_requests / self.wall_loop_s

    def mean_response_us(self) -> float:
        """Mean response time over all requests (exact at any scale)."""
        if self.n_requests == 0:
            return 0.0
        return (self.read_hist.sum + self.write_hist.sum) / self.n_requests

    def mean_read_response_us(self) -> float:
        """Mean response time of read requests."""
        return self.read_hist.mean()

    def mean_write_response_us(self) -> float:
        """Mean response time of write requests."""
        return self.write_hist.mean()

    def percentile_response_us(self, q: float) -> float:
        """Response-time percentile (q in [0, 100]) over all requests.

        Exact (``np.percentile`` over the sample lists) while the run
        is under ``sample_cap``; streamed from the log-bucket
        histograms beyond it.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile {q} outside [0, 100]")
        if self.n_requests == 0:
            return 0.0
        if self.exact_samples:
            all_responses = self.read_responses_us + self.write_responses_us
            return float(np.percentile(all_responses, q))
        return merged_quantile([self.read_hist, self.write_hist], q)

    def percentiles(self) -> dict[str, float]:
        """The tail-latency triple (p50/p95/p99) over all requests."""
        return {
            "p50_response_us": self.percentile_response_us(50),
            "p95_response_us": self.percentile_response_us(95),
            "p99_response_us": self.percentile_response_us(99),
        }

    @property
    def n_channels(self) -> int:
        return len(self.channel_busy_us)

    def record_retry_rounds(self, extra_rounds: int) -> None:
        """Count a flash read that needed ``extra_rounds`` retries."""
        if extra_rounds < 0:
            raise ConfigurationError(f"negative retry rounds: {extra_rounds}")
        self.retry_rounds_histogram[extra_rounds] = (
            self.retry_rounds_histogram.get(extra_rounds, 0) + 1
        )

    def record_uncorrectable(self, channel: int) -> None:
        """Count a flash read the sensing ladder could not recover."""
        if channel < 0:
            raise ConfigurationError(f"negative channel: {channel}")
        self.uncorrectable_reads += 1
        self.uncorrectable_by_channel[channel] = (
            self.uncorrectable_by_channel.get(channel, 0) + 1
        )

    def uncorrectable_rate(self) -> float:
        """Uncorrectable reads per retry-sampled flash read."""
        total = sum(self.retry_rounds_histogram.values())
        if total == 0:
            return 0.0
        return self.uncorrectable_reads / total

    def channel_utilization(self) -> list[float]:
        """Per-channel busy fraction of the run's makespan."""
        if self.makespan_us <= 0.0:
            return [0.0] * self.n_channels
        return [busy / self.makespan_us for busy in self.channel_busy_us]

    def mean_retry_rounds(self) -> float:
        """Average retry rounds per flash read (0 with retries off)."""
        total = sum(self.retry_rounds_histogram.values())
        if total == 0:
            return 0.0
        weighted = sum(k * v for k, v in self.retry_rounds_histogram.items())
        return weighted / total

    def summary(self) -> dict[str, float]:
        """Flat summary for reports; every key appears exactly once."""
        utilization = self.channel_utilization()
        return {
            "n_requests": self.n_requests,
            "mean_response_us": self.mean_response_us(),
            "mean_read_response_us": self.mean_read_response_us(),
            "mean_write_response_us": self.mean_write_response_us(),
            **self.percentiles(),
            **{f"stats.{k}": v for k, v in self.stats.items()},
            "n_channels": self.n_channels,
            "makespan_us": self.makespan_us,
            "mean_channel_utilization": (
                float(np.mean(utilization)) if utilization else 0.0
            ),
            "mean_retry_rounds": self.mean_retry_rounds(),
            "uncorrectable_reads": self.uncorrectable_reads,
            "uncorrectable_rate": self.uncorrectable_rate(),
        }
