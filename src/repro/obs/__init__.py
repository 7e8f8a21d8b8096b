"""Structured observability: metrics, tracing and run manifests.

Three pillars, one dependency-free subsystem:

* :mod:`repro.obs.metrics` — typed ``Counter`` / ``Gauge`` /
  ``Histogram`` instruments in a :class:`MetricsRegistry` namespace,
  with streaming log-bucket quantiles (O(buckets) memory).
* :mod:`repro.obs.tracing` — per-request nested span trees under a
  1-in-N + slowest-K sampling policy, exportable to JSONL and Chrome's
  ``chrome://tracing`` format.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (config hash, seed, git SHA, wall time, peak RSS, metric snapshot)
  written alongside results.
* :mod:`repro.obs.attribution` — exact critical-path decomposition of
  retained request traces onto a fixed cause taxonomy with
  percentile-banded blame tables (``repro explain``).
* :mod:`repro.obs.timeseries` — :class:`WindowedRecorder` virtual-time
  windowed telemetry (queue depth, per-channel activity, retry rate,
  GC/scrub work, degraded state) emitted by the simulation engine.
* :mod:`repro.obs.monitor` — online health monitoring over the
  windowed streams: CUSUM / Page–Hinkley change-point rules on the
  wear-drift signals, multi-window SLO burn-rate alerting, per-alert
  attribution drill-downs, and Prometheus / JSONL / TTY export
  (``repro monitor``, ``repro serve --monitor``).
* :mod:`repro.obs.profile` — wall-clock profiling (the one pillar that
  measures real seconds, not virtual microseconds): the
  :class:`EventLoopProfiler` instrumenting mode, the
  :class:`StackSampler` collapsed-stack sampler and tracemalloc
  allocation profiles (``repro profile``).
"""

from repro.obs.attribution import (
    CAUSES,
    AttributionReport,
    BandBlame,
    RequestAttribution,
    attribute_request,
    diff_reports,
)
from repro.obs.channel import (
    CHANNEL_SCHEMA,
    ChannelTelemetry,
    channel_fingerprint,
    diff_channel_artifacts,
    render_block_heatmap,
)
from repro.obs.manifest import ManifestBuilder, RunManifest, config_hash, git_sha
from repro.obs.profile import (
    PROFILE_MODES,
    PROFILE_SCHEMA,
    EventLoopProfiler,
    StackSampler,
    allocation_profile,
    parse_collapsed,
    peak_py_alloc_kb,
    profile_fingerprint,
    profile_workload,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merged_quantile,
)
from repro.obs.monitor import (
    ChangePointRule,
    CusumDetector,
    HealthMonitor,
    MonitorConfig,
    PageHinkleyDetector,
    default_rules,
    monitor_fingerprint,
    parse_rule,
    prometheus_text,
)
from repro.obs.timeseries import DEFAULT_WINDOW_US, WindowedRecorder
from repro.obs.tracing import Span, Tracer, spans_from_chrome_trace

__all__ = [
    "AttributionReport",
    "BandBlame",
    "CAUSES",
    "DEFAULT_WINDOW_US",
    "RequestAttribution",
    "WindowedRecorder",
    "attribute_request",
    "diff_reports",
    "spans_from_chrome_trace",
    "CHANNEL_SCHEMA",
    "ChangePointRule",
    "ChannelTelemetry",
    "Counter",
    "CusumDetector",
    "EventLoopProfiler",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "ManifestBuilder",
    "MetricsRegistry",
    "MonitorConfig",
    "PageHinkleyDetector",
    "PROFILE_MODES",
    "PROFILE_SCHEMA",
    "RunManifest",
    "Span",
    "StackSampler",
    "Tracer",
    "allocation_profile",
    "channel_fingerprint",
    "config_hash",
    "default_rules",
    "diff_channel_artifacts",
    "git_sha",
    "merged_quantile",
    "monitor_fingerprint",
    "parse_collapsed",
    "parse_rule",
    "prometheus_text",
    "peak_py_alloc_kb",
    "profile_fingerprint",
    "profile_workload",
    "render_block_heatmap",
]
