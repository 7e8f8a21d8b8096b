"""Online health monitor: windows in, alerts (with blame tables) out.

:class:`HealthMonitor` attaches to a :class:`WindowedRecorder` via the
window-close hook and evaluates, on every closed window of *virtual*
time:

* the change-point rules (:mod:`repro.obs.monitor.rules` — CUSUM /
  Page–Hinkley over the wear-drift series), and
* the burn-rate rules (:mod:`repro.obs.monitor.burnrate` — per-tenant
  request-level burn on serve runs, window-tail burn on plain sims).

When a rule fires, the monitor snapshots an attribution drill-down
**restricted to the offending window** from the tracer's retained
spans — every alert carries its own blame table, not a pointer to a
post-hoc tool.  Because windows close in virtual time and every input
is deterministic, the alert stream is byte-identical across repeated
runs of the same seed/config; ``monitor_fingerprint`` hashes the
artifact with :func:`repro.obs.manifest.fingerprint` (no wall-clock
field enters it) so cross-machine equality is one string comparison.

The monitor is an *observer*: it never touches the engine, the RNG
streams, or the recorder's contents, so attaching it leaves the
simulation results byte-identical to an unmonitored run (pinned in
tests/obs/test_monitor.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.attribution import AttributionReport
from repro.obs.manifest import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor.burnrate import (
    DEFAULT_MIN_TOTAL,
    DEFAULT_PAIRS,
    BurnRateRule,
    TailBurnSource,
    TenantBurnSource,
)
from repro.obs.monitor.rules import ChangePointRule, default_rules
from repro.obs.timeseries import WindowedRecorder
from repro.obs.tracing import Tracer

SCHEMA = "repro.monitor/1"

#: Alert records kept in full; later alerts still count but only the
#: rule/window fields are retained (an alert storm must not make the
#: artifact unbounded).
MAX_ALERTS = 512

#: Series whose nonzero observation marks read-only degraded mode.
#: ``ftl.degraded.read_only`` is sampled 1.0 at the degradation
#: instant; ``sim.degraded.read_only`` is the engine's per-completion
#: gauge of the same flag.
DEGRADED_SERIES = ("ftl.degraded.read_only", "sim.degraded.read_only")


@dataclass(frozen=True)
class MonitorConfig:
    """Deterministic monitor configuration (hashed into the artifact).

    ``slo_us`` arms window-tail burn-rate alerting on plain sim runs;
    ``None`` leaves only the change-point rules active there.  Serve
    runs always arm request-level burn per tenant (each tenant's SLO
    bound comes from its spec, not from here).
    """

    slo_us: float | None = None
    slo_target: float = 0.999
    burn_pairs: tuple[tuple[str, int, int, float], ...] = DEFAULT_PAIRS
    burn_min_total: float = DEFAULT_MIN_TOTAL
    warmup_windows: int = 8
    blame_lookback_windows: int = 8
    max_alerts: int = MAX_ALERTS

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo_us": self.slo_us,
            "slo_target": self.slo_target,
            "burn_pairs": [list(pair) for pair in self.burn_pairs],
            "burn_min_total": self.burn_min_total,
            "warmup_windows": self.warmup_windows,
            "blame_lookback_windows": self.blame_lookback_windows,
            "max_alerts": self.max_alerts,
        }


@dataclass
class Alert:
    """One firing: rule identity, window, evidence, blame table."""

    seq: int
    kind: str  # "change_point" | "burn_rate"
    rule: str
    window: int
    start_us: float
    end_us: float
    severity: str
    evidence: dict[str, Any]
    blame: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "rule": self.rule,
            "window": self.window,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "severity": self.severity,
            "evidence": self.evidence,
            "blame": self.blame,
        }


class HealthMonitor:
    """Evaluates alert rules on every closed virtual-time window.

    Parameters
    ----------
    recorder:
        The windowed recorder the engine emits into.  ``attach()``
        registers the close hook; construct the monitor *before* the
        run so no windows are missed.
    registry:
        Optional metrics registry; the monitor publishes its own
        ``monitor.*`` counters/gauges there (they ride along into
        manifests and the Prometheus export).
    tracer:
        Optional tracer whose retained spans feed the per-alert blame
        snapshot.  Without one, alerts carry ``blame: null``.
    rules:
        Change-point rules; defaults to :func:`default_rules`.
    tenants:
        Tenant names (serve runs) for request-level burn sources.
    config:
        :class:`MonitorConfig`; defaults are alert-silent on a healthy
        fault-free run (regression-gated in the detection bench).
    """

    def __init__(
        self,
        recorder: WindowedRecorder,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        rules: list[ChangePointRule] | None = None,
        tenants: list[str] | None = None,
        config: MonitorConfig | None = None,
    ):
        self.config = config or MonitorConfig()
        self.recorder = recorder
        self.registry = registry
        self.tracer = tracer
        self.rules = (
            rules
            if rules is not None
            else default_rules(warmup=self.config.warmup_windows)
        )
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate rule names: {names}")
        self._burn: list[tuple[Any, BurnRateRule]] = []
        if tenants:
            # Serve runs: the per-tenant SLO lives in the tenant spec
            # (the windowed slo_violations series already encodes it),
            # so request-level burn is always armed.
            for tenant in tenants:
                self._burn.append(
                    (
                        TenantBurnSource(tenant),
                        self._burn_rule(f"burn.{tenant}"),
                    )
                )
        elif self.config.slo_us is not None:
            self._burn.append(
                (
                    TailBurnSource(self.config.slo_us),
                    self._burn_rule("burn.tail"),
                )
            )
        self.alerts: list[Alert] = []
        self.n_alerts = 0  # includes alerts beyond max_alerts
        self.windows_closed = 0
        self.last_window: tuple[int, float, float] | None = None
        self._attached = False
        self._terminal_emitted = False
        self._observers: list[Callable[["HealthMonitor"], None]] = []

    def _burn_rule(self, name: str) -> BurnRateRule:
        return BurnRateRule(
            name,
            slo_target=self.config.slo_target,
            pairs=self.config.burn_pairs,
            min_total=self.config.burn_min_total,
        )

    # --- wiring -----------------------------------------------------------------

    def attach(self) -> "HealthMonitor":
        """Register the recorder close and flush hooks (idempotent)."""
        if not self._attached:
            self.recorder.add_close_hook(self._window_closed)
            self.recorder.add_flush_hook(self._run_flushed)
            self._attached = True
        return self

    def add_observer(
        self, observer: Callable[["HealthMonitor"], None]
    ) -> None:
        """Called after every evaluated window (TTY status view)."""
        self._observers.append(observer)

    # --- evaluation -------------------------------------------------------------

    def _window_closed(
        self, index: int, start_us: float, end_us: float
    ) -> None:
        self.windows_closed += 1
        self.last_window = (index, start_us, end_us)
        for rule in self.rules:
            alarm = rule.observe(self.recorder, index)
            if alarm is not None:
                self._record(
                    kind="change_point",
                    rule=rule.name,
                    index=index,
                    start_us=start_us,
                    end_us=end_us,
                    severity=self._severity(alarm.score, alarm.threshold),
                    evidence={
                        **alarm.to_dict(),
                        "series": rule.series,
                        "signal": rule.signal,
                    },
                )
        for source, burn in self._burn:
            bad, total = source.bad_total(self.recorder, index)
            for alarm in burn.update(bad, total):
                self._record(
                    kind="burn_rate",
                    rule=f"{burn.name}.{alarm.pair}",
                    index=index,
                    start_us=start_us,
                    end_us=end_us,
                    severity="page" if alarm.pair == "fast" else "ticket",
                    evidence={
                        **alarm.to_dict(),
                        "slo_target": burn.slo_target,
                    },
                )
        if self.registry is not None:
            self.registry.counter("monitor.windows").inc()
            self.registry.gauge("monitor.alerts.total").set(self.n_alerts)
        for observer in self._observers:
            observer(self)

    def _degraded_onset(self) -> tuple[str, int] | None:
        """Earliest window where a degraded-mode series went nonzero."""
        best: tuple[str, int] | None = None
        for series in DEGRADED_SERIES:
            for row in self.recorder.rows(series):
                if row["max"] > 0.0:
                    if best is None or row["window"] < best[1]:
                        best = (series, int(row["window"]))
                    break
        return best

    def _run_flushed(self) -> None:
        """End-of-run verdict: terminal ``degraded`` alert.

        The change-point ``degraded`` rule only sees *closed* windows
        and needs its detector to accumulate past warmup — a drive that
        drops to read-only in the trailing partial window (or right at
        a crash cut) could end the run without a single alert saying
        so.  The flush hook fires after every window, partial ones
        included, has closed: if any degraded-mode series ever went
        nonzero, exactly one terminal alert is emitted with a blame
        snapshot of the final window (falling back to the trailing
        lookback when the partial window retained no spans).
        """
        if self._terminal_emitted:
            return
        onset = self._degraded_onset()
        if onset is None:
            return
        self._terminal_emitted = True
        series, first_window = onset
        index = max(self.recorder.closed_through - 1, first_window)
        start_us = self.recorder.origin_us + index * self.recorder.window_us
        end_us = start_us + self.recorder.window_us
        self._record(
            kind="degraded",
            rule="terminal.degraded",
            index=index,
            start_us=start_us,
            end_us=end_us,
            severity="page",
            evidence={
                "series": series,
                "first_degraded_window": first_window,
                "first_degraded_us": (
                    self.recorder.origin_us
                    + first_window * self.recorder.window_us
                ),
                "windows_closed": self.windows_closed,
            },
        )

    @staticmethod
    def _severity(score: float, threshold: float) -> str:
        return "page" if score > 2.0 * threshold else "ticket"

    def _record(
        self,
        kind: str,
        rule: str,
        index: int,
        start_us: float,
        end_us: float,
        severity: str,
        evidence: dict[str, Any],
    ) -> None:
        self.n_alerts += 1
        if self.registry is not None:
            self.registry.counter(f"monitor.alerts.{kind}").inc()
            self.registry.gauge("monitor.last_alert_window").set(index)
        if len(self.alerts) >= self.config.max_alerts:
            return
        self.alerts.append(
            Alert(
                seq=self.n_alerts,
                kind=kind,
                rule=rule,
                window=index,
                start_us=start_us,
                end_us=end_us,
                severity=severity,
                evidence=evidence,
                blame=self._blame(start_us, end_us),
            )
        )

    # --- blame drill-down -------------------------------------------------------

    def _blame(self, start_us: float, end_us: float) -> dict[str, Any] | None:
        """Attribution snapshot restricted to the offending window.

        Falls back to a trailing window range when no retained request
        completed inside the window itself (e.g. an alert on a series
        with no completions, or a sparsely sampled tracer); the basis
        actually used is recorded so the table is never misread.
        """
        if self.tracer is None:
            return None
        spans = [
            s
            for s in self.tracer.spans
            if s.end_us is not None and start_us <= s.end_us < end_us
        ]
        basis = "window"
        basis_start = start_us
        if not spans:
            lookback = self.config.blame_lookback_windows
            basis_start = max(
                self.recorder.origin_us,
                start_us - lookback * self.recorder.window_us,
            )
            spans = [
                s
                for s in self.tracer.spans
                if s.end_us is not None and basis_start <= s.end_us < end_us
            ]
            basis = "trailing"
        if not spans:
            return {
                "basis": "none",
                "start_us": basis_start,
                "end_us": end_us,
                "n_requests": 0,
            }
        overall = AttributionReport.from_spans(spans).overall.to_dict()
        return {
            "basis": basis,
            "start_us": basis_start,
            "end_us": end_us,
            "n_requests": overall["n_requests"],
            "total_us": overall["total_us"],
            "blame_us": overall["blame_us"],
            "blame_fraction": overall["blame_fraction"],
        }

    # --- export -----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Deterministic ``repro.monitor/1`` artifact body."""
        return {
            "schema": SCHEMA,
            "window_us": self.recorder.window_us,
            "origin_us": self.recorder.origin_us,
            "windows_closed": self.windows_closed,
            "config": self.config.to_dict(),
            "rules": [rule.to_dict() for rule in self.rules],
            "burn_rules": [burn.to_dict() for _, burn in self._burn],
            "n_alerts": self.n_alerts,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "rule_state": {
                rule.name: rule.state() for rule in self.rules
            },
        }

    def write_jsonl(self, path: Any) -> None:
        """JSONL event stream: header, one line per alert, summary."""
        body = self.to_dict()
        lines = [
            json.dumps(
                {
                    "event": "header",
                    "schema": SCHEMA,
                    "window_us": body["window_us"],
                    "config": body["config"],
                    "rules": body["rules"],
                    "burn_rules": body["burn_rules"],
                }
            )
        ]
        lines.extend(
            json.dumps({"event": "alert", **alert}) for alert in body["alerts"]
        )
        lines.append(
            json.dumps(
                {
                    "event": "summary",
                    "windows_closed": body["windows_closed"],
                    "n_alerts": body["n_alerts"],
                    "fingerprint": monitor_fingerprint(body),
                }
            )
        )
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


#: Hash of the deterministic artifact body.  Wall-clock never enters
#: the monitor artifact (everything is keyed by virtual time), so same
#: seed/config give the same fingerprint on any machine.
monitor_fingerprint = fingerprint
