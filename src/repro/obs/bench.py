"""Benchmark ledger: structured BENCH artifacts and regression gating.

The 20-odd scripts under ``benchmarks/`` print paper-style text tables;
this module gives each run a machine-readable twin so the repo's perf
trajectory is comparable across PRs:

* :class:`BenchResult` — one bench execution: name, quick/full mode,
  seed, curated scalar metrics, per-metric tolerance/direction hints
  and the embedded provenance :class:`~repro.obs.manifest.RunManifest`.
  Serialized as ``BENCH_<name>.json`` at the repo root.
* :class:`BenchLedger` — an append-only JSONL history
  (``benchmarks/results/ledger.jsonl``), one record per bench
  execution keyed by git SHA + config hash + seed + run id.
* :func:`compare_results` — a statistical comparator that derives
  per-metric noise bands from seed-replicate runs (falling back to
  declared tolerances) and classifies every metric as improved, flat
  or regressed with the right directionality (lower-is-better for
  latency/BER, higher-is-better for throughput/capacity).
* :class:`BenchCase` — the emit API bench scripts use (via the
  ``bench_case`` fixture in ``benchmarks/conftest.py``) to publish
  their headline numbers.

Quick/full mode and the bench seed are routed through one pair of
environment variables (:data:`QUICK_ENV`, :data:`SEED_ENV`) set by the
``repro bench run`` harness; results from different modes are never
comparable (:class:`BenchModeMismatch`).
"""

from __future__ import annotations

import json
import math
import os
import re
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.manifest import ManifestBuilder, RunManifest
from repro.obs.profile import peak_py_alloc_kb, wall_snapshot

BENCH_SCHEMA_VERSION = 1

#: Environment variable that switches every bench into quick mode.
QUICK_ENV = "REPRO_BENCH_QUICK"
#: Environment variable that overrides the benches' base RNG seed.
SEED_ENV = "REPRO_BENCH_SEED"
#: Environment variable carrying the harness-assigned run id.
RUN_ID_ENV = "REPRO_BENCH_RUN_ID"
#: Environment variable relocating BENCH_*.json / ledger output.
ROOT_ENV = "REPRO_BENCH_ROOT"
#: Environment variable enabling tracemalloc during bench runs, so
#: every case's ``wall`` section carries ``peak_py_alloc_kb``.  Off by
#: default: tracing slows the measured code 2-4x.
ALLOC_ENV = "REPRO_BENCH_ALLOC"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_]*$")

MODES = ("quick", "full")

CLASS_IMPROVED = "improved"
CLASS_FLAT = "flat"
CLASS_REGRESSED = "regressed"
CLASS_MISSING_BASELINE = "missing_baseline"
CLASS_MISSING_CANDIDATE = "missing_candidate"

#: Classifications that fail a regression gate: a metric got worse, or
#: it silently disappeared from the candidate run.
FAILING_CLASSES = (CLASS_REGRESSED, CLASS_MISSING_CANDIDATE)


class BenchSchemaError(ValueError):
    """A BENCH record does not satisfy the schema."""


class BenchModeMismatch(ValueError):
    """Quick-mode and full-mode runs were asked to be compared."""


def quick_mode(env: Mapping[str, str] | None = None) -> bool:
    """True when :data:`QUICK_ENV` requests the CI smoke scale."""
    env = os.environ if env is None else env
    return env.get(QUICK_ENV, "") not in ("", "0")


def bench_mode(env: Mapping[str, str] | None = None) -> str:
    """The current bench mode string: ``"quick"`` or ``"full"``."""
    return "quick" if quick_mode(env) else "full"


def alloc_mode(env: Mapping[str, str] | None = None) -> bool:
    """True when :data:`ALLOC_ENV` asks benches to trace allocations."""
    env = os.environ if env is None else env
    return env.get(ALLOC_ENV, "") not in ("", "0")


def bench_seed(default: int = 1, env: Mapping[str, str] | None = None) -> int:
    """The benches' base RNG seed (:data:`SEED_ENV` override)."""
    env = os.environ if env is None else env
    raw = env.get(SEED_ENV, "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise BenchSchemaError(f"{SEED_ENV}={raw!r} is not an integer") from None


def bench_name_for(module_name: str, test_name: str) -> str:
    """Canonical bench-case name for one test in one bench module.

    Single-test modules collapse to the module stem (``bench_uber.py``'s
    ``test_uber_requirements`` → ``uber_requirements``); tests that do
    not extend the module stem are namespaced under it so every case a
    script emits shares the script's name as a prefix.
    """
    mod = module_name.split(".")[-1]
    if mod.startswith("bench_"):
        mod = mod[len("bench_"):]
    test = test_name
    for prefix in ("test_", "bench_"):
        if test.startswith(prefix):
            test = test[len(prefix):]
    if test == mod or test.startswith(mod):
        return test
    return f"{mod}__{test}"


def default_bench_root(env: Mapping[str, str] | None = None) -> Path:
    """Where ``BENCH_*.json`` files land (repo root unless overridden).

    :data:`ROOT_ENV` wins; otherwise the first ancestor of the working
    directory containing a ``benchmarks/`` directory, falling back to
    the working directory itself.
    """
    env = os.environ if env is None else env
    override = env.get(ROOT_ENV, "")
    if override:
        return Path(override)
    cwd = Path.cwd()
    for candidate in (cwd, *cwd.parents):
        if (candidate / "benchmarks").is_dir():
            return candidate
    return cwd


# ---------------------------------------------------------------------------
# Metric direction and tolerance hints
# ---------------------------------------------------------------------------

#: (substring, direction) pairs; for a metric name the *rightmost*
#: matching substring decides, so ``capacity_loss`` is lower-is-better
#: (``loss`` beats ``capacity``) while bare ``capacity`` is higher.
_DIRECTION_TOKENS: tuple[tuple[str, str], ...] = (
    ("latency", "lower"),
    ("response", "lower"),
    ("_us", "lower"),
    ("time", "lower"),
    ("wait", "lower"),
    ("stall", "lower"),
    ("ber", "lower"),
    ("fer", "lower"),
    ("uber", "lower"),
    ("failure", "lower"),
    ("loss", "lower"),
    ("erase", "lower"),
    ("amplification", "lower"),
    ("levels", "lower"),
    ("increase", "lower"),
    ("retries", "lower"),
    ("rss", "lower"),
    ("programs", "lower"),
    ("promotions", "lower"),
    ("migrations", "lower"),
    ("spread", "lower"),
    ("delta", "lower"),
    ("throughput", "higher"),
    ("bandwidth", "higher"),
    ("iops", "higher"),
    ("capacity", "higher"),
    ("hits", "higher"),
    ("hit_rate", "higher"),
    ("success", "higher"),
    ("gain", "higher"),
    ("reduction", "higher"),
    ("lifetime", "higher"),
    ("endurance", "higher"),
    ("matches", "higher"),
)


def infer_direction(metric_name: str) -> str:
    """``"lower"`` or ``"higher"`` is better, inferred from the name.

    Unknown names default to lower-is-better: almost every metric the
    benches emit is a cost (latency, BER, erases, capacity loss).
    """
    best_direction, best_pos = "lower", -1
    for token, direction in _DIRECTION_TOKENS:
        pos = metric_name.rfind(token)
        if pos > best_pos:
            best_direction, best_pos = direction, pos
    return best_direction


@dataclass(frozen=True)
class MetricSpec:
    """Per-metric comparison hints a bench may declare at emit time.

    ``direction`` is ``"lower"``/``"higher"`` (empty = infer from the
    name); ``tolerance`` is the relative half-width of the flat band
    (None = comparator default, or a replicate-derived noise band when
    replicates are available and wider).
    """

    direction: str = ""
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("", "lower", "higher"):
            raise BenchSchemaError(
                f"direction must be 'lower' or 'higher', got {self.direction!r}"
            )
        if self.tolerance is not None and not self.tolerance > 0:
            raise BenchSchemaError(
                f"tolerance must be positive, got {self.tolerance!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.direction:
            out["direction"] = self.direction
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "MetricSpec":
        return MetricSpec(
            direction=str(data.get("direction", "")),
            tolerance=data.get("tolerance"),
        )


def _coerce_specs(
    specs: Mapping[str, MetricSpec | Mapping[str, Any]] | None,
) -> dict[str, MetricSpec]:
    out: dict[str, MetricSpec] = {}
    for name, spec in (specs or {}).items():
        out[name] = spec if isinstance(spec, MetricSpec) else MetricSpec.from_dict(spec)
    return out


# ---------------------------------------------------------------------------
# BenchResult schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    """One bench execution's machine-readable record.

    ``metrics`` holds the *curated* headline scalars the regression
    gate watches; the full instrument snapshot (and wall time / RSS,
    which are environment noise, not model outputs) lives in the
    embedded ``manifest`` and is never gated.  ``wall`` is the case's
    wall-clock sidecar — throughput (``wall_events_per_s``,
    ``wall_requests_per_s``, diffed from the engine's process-global
    ledger around the case) and ``peak_py_alloc_kb`` when tracing —
    also never compared by :func:`compare_results`, only trended.
    """

    name: str
    mode: str = "full"
    seed: int | None = None
    run_id: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    specs: dict[str, MetricSpec] = field(default_factory=dict)
    wall: dict[str, float | None] = field(default_factory=dict)
    manifest: RunManifest | None = None
    schema_version: int = BENCH_SCHEMA_VERSION

    @property
    def git_sha(self) -> str:
        return self.manifest.git_sha if self.manifest else "unknown"

    @property
    def config_hash(self) -> str:
        return self.manifest.config_hash if self.manifest else ""

    @property
    def started_utc(self) -> str:
        return self.manifest.started_utc if self.manifest else ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "bench": self.name,
            "mode": self.mode,
            "seed": self.seed,
            "run_id": self.run_id,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "started_utc": self.started_utc,
            "metrics": dict(self.metrics),
            "specs": {k: v.to_dict() for k, v in sorted(self.specs.items())},
            "wall": dict(self.wall),
            "manifest": self.manifest.to_dict() if self.manifest else None,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "BenchResult":
        errors = validate_bench_dict(data)
        if errors:
            raise BenchSchemaError("; ".join(errors))
        manifest = None
        if data.get("manifest") is not None:
            manifest = RunManifest(**data["manifest"])
        return BenchResult(
            name=data["bench"],
            mode=data["mode"],
            seed=data.get("seed"),
            run_id=str(data.get("run_id", "")),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            specs=_coerce_specs(data.get("specs")),
            wall={
                k: (None if v is None else float(v))
                for k, v in (data.get("wall") or {}).items()
            },
            manifest=manifest,
            schema_version=int(data["schema_version"]),
        )

    def write(self, root: Path | None = None) -> Path:
        """Write ``BENCH_<name>.json`` under ``root``; returns the path."""
        root = default_bench_root() if root is None else Path(root)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"BENCH_{self.name}.json"
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @staticmethod
    def read(path: Path | str) -> "BenchResult":
        with open(path) as handle:
            return BenchResult.from_dict(json.load(handle))


def validate_bench_dict(data: Mapping[str, Any]) -> list[str]:
    """Schema errors for a would-be BENCH record (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return ["record is not a JSON object"]
    version = data.get("schema_version")
    if not isinstance(version, int) or version < 1:
        errors.append(f"schema_version must be a positive int, got {version!r}")
    name = data.get("bench")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        errors.append(f"bench must match {_NAME_RE.pattern}, got {name!r}")
    if data.get("mode") not in MODES:
        errors.append(f"mode must be one of {MODES}, got {data.get('mode')!r}")
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        errors.append(f"seed must be an int or null, got {seed!r}")
    metrics = data.get("metrics")
    if not isinstance(metrics, Mapping):
        errors.append(f"metrics must be an object, got {type(metrics).__name__}")
    else:
        if not metrics:
            errors.append("metrics must not be empty")
        for key, value in metrics.items():
            if not isinstance(key, str):
                errors.append(f"metric name {key!r} is not a string")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"metric {key!r} value {value!r} is not a number")
            elif not math.isfinite(value):
                errors.append(f"metric {key!r} is not finite ({value!r})")
    specs = data.get("specs", {})
    if not isinstance(specs, Mapping):
        errors.append("specs must be an object")
    else:
        for key, spec in specs.items():
            try:
                MetricSpec.from_dict(spec)
            except (BenchSchemaError, AttributeError, TypeError) as exc:
                errors.append(f"spec for {key!r} invalid: {exc}")
    wall = data.get("wall", {})
    if not isinstance(wall, Mapping):
        errors.append("wall must be an object")
    else:
        # Lenient by design: wall values are machine-dependent data the
        # comparator never reads, so null (unknown) is fine — only the
        # shape (name -> finite-number-or-null) is pinned.
        for key, value in wall.items():
            if not isinstance(key, str):
                errors.append(f"wall key {key!r} is not a string")
            elif value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                errors.append(
                    f"wall {key!r} value {value!r} is not a finite number or null"
                )
    manifest = data.get("manifest")
    if manifest is not None and not isinstance(manifest, Mapping):
        errors.append("manifest must be an object or null")
    return errors


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


class BenchLedger:
    """Append-only JSONL history of bench executions.

    One line per :class:`BenchResult`; records are grouped into *runs*
    by their ``run_id`` (the harness assigns one per ``repro bench
    run``; a plain ``pytest benchmarks/`` session shares one local id
    via the ``bench_run_id`` fixture).
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)

    def append(self, result: BenchResult) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")

    def records(self) -> list[dict[str, Any]]:
        """All well-formed records, oldest first (malformed lines skipped)."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and not validate_bench_dict(record):
                    out.append(record)
        return out

    def runs(self, mode: str | None = None) -> list[tuple[str, list[dict[str, Any]]]]:
        """(run_id, records) groups in order of first appearance."""
        groups: dict[str, list[dict[str, Any]]] = {}
        order: list[str] = []
        for record in self.records():
            if mode is not None and record.get("mode") != mode:
                continue
            key = record.get("run_id") or (
                f"{record.get('git_sha', 'unknown')}@{record.get('started_utc', '')}"
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(record)
        return [(key, groups[key]) for key in order]

    def select(
        self, selector: str, mode: str | None = None
    ) -> dict[str, BenchResult]:
        """Resolve a run selector to ``{bench_name: BenchResult}``.

        Selectors: ``latest``, ``prev`` (second-newest), ``run:<id
        prefix>``, ``sha:<git sha prefix>``.  Within a run, the last
        record per bench wins.
        """
        runs = self.runs(mode=mode)
        if not runs:
            raise LookupError(
                f"ledger {self.path} has no runs"
                + (f" in mode {mode!r}" if mode else "")
            )
        chosen: list[dict[str, Any]] | None = None
        if selector == "latest":
            chosen = runs[-1][1]
        elif selector == "prev":
            if len(runs) < 2:
                raise LookupError(f"ledger {self.path} has no previous run")
            chosen = runs[-2][1]
        elif selector.startswith("run:"):
            prefix = selector[len("run:"):]
            for key, records in reversed(runs):
                if key.startswith(prefix):
                    chosen = records
                    break
        elif selector.startswith("sha:"):
            prefix = selector[len("sha:"):]
            for _, records in reversed(runs):
                if any(
                    str(r.get("git_sha", "")).startswith(prefix) for r in records
                ):
                    chosen = records
                    break
        else:
            raise LookupError(f"unknown ledger selector {selector!r}")
        if chosen is None:
            raise LookupError(f"no ledger run matches {selector!r}")
        out: dict[str, BenchResult] = {}
        for record in chosen:
            out[record["bench"]] = BenchResult.from_dict(record)
        return out

    def replicates(
        self, bench: str, mode: str, config_hash: str | None = None
    ) -> list[dict[str, float]]:
        """Metric dicts of all ledger records for one bench and mode.

        Used to derive per-metric noise bands from seed-replicate runs;
        ``config_hash`` restricts to records of one exact experiment
        configuration (recommended — different configs are different
        experiments, not noise).
        """
        out: list[dict[str, float]] = []
        for record in self.records():
            if record.get("bench") != bench or record.get("mode") != mode:
                continue
            if config_hash is not None and record.get("config_hash") != config_hash:
                continue
            out.append({k: float(v) for k, v in record["metrics"].items()})
        return out


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------

#: Relative flat band used when neither a declared tolerance nor a
#: replicate-derived noise band is available.  Wide enough to absorb
#: float drift across numpy/python versions, tight enough to catch a
#: real perf or model change.
DEFAULT_TOLERANCE = 0.02

#: Replicate noise bands are ±this many standard deviations around the
#: replicate mean (relative).
NOISE_SIGMAS = 3.0


def noise_band(
    values: Sequence[float] | None,
    declared: float | None,
    default: float = DEFAULT_TOLERANCE,
) -> float:
    """Relative flat-band half-width for one metric.

    With ≥2 finite replicate values the band is
    ``NOISE_SIGMAS * std / |mean|``, floored at the declared tolerance
    (or the comparator default).  Zero-variance replicates therefore
    fall back to the declared tolerance, never to a zero band.
    """
    floor = default if declared is None else declared
    finite = [v for v in (values or ()) if math.isfinite(v)]
    if len(finite) >= 2:
        mean = sum(finite) / len(finite)
        var = sum((v - mean) ** 2 for v in finite) / (len(finite) - 1)
        if mean != 0.0:
            return max(floor, NOISE_SIGMAS * math.sqrt(var) / abs(mean))
    return floor


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-candidate verdict."""

    metric: str
    baseline: float | None
    candidate: float | None
    direction: str
    band: float
    rel_change: float
    classification: str

    @property
    def failing(self) -> bool:
        return self.classification in FAILING_CLASSES

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "direction": self.direction,
            "band": self.band,
            "rel_change": None if math.isnan(self.rel_change) else self.rel_change,
            "classification": self.classification,
        }


def _classify(
    baseline: float | None,
    candidate: float | None,
    direction: str,
    band: float,
) -> tuple[str, float]:
    if candidate is None or (candidate is not None and math.isnan(candidate)):
        # A metric that vanished (or went NaN) in the candidate is a
        # failure unless the baseline never had it either.
        if baseline is None or math.isnan(baseline):
            return CLASS_MISSING_BASELINE, math.nan
        return CLASS_MISSING_CANDIDATE, math.nan
    if baseline is None or math.isnan(baseline):
        return CLASS_MISSING_BASELINE, math.nan
    if baseline == 0.0:
        if candidate == 0.0:
            return CLASS_FLAT, 0.0
        rel = math.inf if candidate > 0 else -math.inf
    else:
        rel = (candidate - baseline) / abs(baseline)
    worse = rel if direction == "lower" else -rel
    if worse > band:
        return CLASS_REGRESSED, rel
    if worse < -band:
        return CLASS_IMPROVED, rel
    return CLASS_FLAT, rel


def compare_metrics(
    baseline: Mapping[str, float],
    candidate: Mapping[str, float],
    specs: Mapping[str, MetricSpec | Mapping[str, Any]] | None = None,
    replicates: Iterable[Mapping[str, float]] | None = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
) -> list[MetricDelta]:
    """Per-metric deltas over the union of both metric sets.

    ``replicates`` is an iterable of metric dicts from seed-replicate
    runs of the *baseline* experiment; when present (and ≥2 values per
    metric) the flat band widens to the observed noise.
    """
    spec_map = _coerce_specs(specs)
    replicate_values: dict[str, list[float]] = {}
    for snapshot in replicates or ():
        for key, value in snapshot.items():
            replicate_values.setdefault(key, []).append(float(value))
    deltas: list[MetricDelta] = []
    for name in sorted(set(baseline) | set(candidate)):
        spec = spec_map.get(name, MetricSpec())
        direction = spec.direction or infer_direction(name)
        band = noise_band(
            replicate_values.get(name), spec.tolerance, default_tolerance
        )
        base = baseline.get(name)
        cand = candidate.get(name)
        classification, rel = _classify(
            None if base is None else float(base),
            None if cand is None else float(cand),
            direction,
            band,
        )
        deltas.append(
            MetricDelta(
                metric=name,
                baseline=None if base is None else float(base),
                candidate=None if cand is None else float(cand),
                direction=direction,
                band=band,
                rel_change=rel,
                classification=classification,
            )
        )
    return deltas


@dataclass(frozen=True)
class BenchComparison:
    """All metric verdicts for one bench pair."""

    bench: str
    mode: str
    deltas: tuple[MetricDelta, ...]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.failing]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.classification == CLASS_IMPROVED]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "mode": self.mode,
            "ok": self.ok,
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def summary_lines(self, verbose: bool = False) -> list[str]:
        """Human-readable verdict lines (regressions always shown)."""
        lines: list[str] = []
        marks = {
            CLASS_IMPROVED: "+",
            CLASS_FLAT: "=",
            CLASS_REGRESSED: "!",
            CLASS_MISSING_BASELINE: "?",
            CLASS_MISSING_CANDIDATE: "!",
        }
        for delta in self.deltas:
            if not verbose and delta.classification == CLASS_FLAT:
                continue
            rel = (
                f"{delta.rel_change:+.2%}"
                if math.isfinite(delta.rel_change)
                else "n/a"
            )
            lines.append(
                f"  {marks[delta.classification]} {self.bench}.{delta.metric}: "
                f"{delta.baseline} -> {delta.candidate} "
                f"({rel}, band ±{delta.band:.2%}, {delta.direction} is better)"
                f" [{delta.classification}]"
            )
        return lines


def compare_results(
    baseline: BenchResult,
    candidate: BenchResult,
    replicates: Iterable[Mapping[str, float]] | None = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Compare two :class:`BenchResult` records of the same bench.

    Raises :class:`BenchModeMismatch` when one side is a quick-mode run
    and the other full — the scales differ, so any delta would be
    meaningless.
    """
    if baseline.mode != candidate.mode:
        raise BenchModeMismatch(
            f"cannot compare {baseline.name}: baseline is {baseline.mode!r} "
            f"but candidate is {candidate.mode!r}"
        )
    specs: dict[str, MetricSpec] = dict(baseline.specs)
    specs.update(candidate.specs)
    deltas = compare_metrics(
        baseline.metrics,
        candidate.metrics,
        specs=specs,
        replicates=replicates,
        default_tolerance=default_tolerance,
    )
    return BenchComparison(
        bench=candidate.name, mode=candidate.mode, deltas=tuple(deltas)
    )


# ---------------------------------------------------------------------------
# Emit API for bench scripts
# ---------------------------------------------------------------------------


class BenchCase:
    """One bench execution's emit handle.

    Created (by the ``bench_case`` fixture) before the measured run so
    the embedded manifest's wall time brackets it; the script calls
    :meth:`configure` with its experiment knobs and :meth:`emit` with
    its headline metrics.  The mode is injected into the manifest
    config, so quick and full runs hash to different ``config_hash``
    values on top of carrying an explicit ``mode`` field.
    """

    def __init__(
        self,
        name: str,
        *,
        root: Path | str | None = None,
        ledger_path: Path | str | None = None,
        mode: str | None = None,
        seed: int | None = None,
        run_id: str | None = None,
    ):
        if not _NAME_RE.match(name):
            raise BenchSchemaError(f"bench name {name!r} must be lower_snake")
        self.name = name
        self.root = default_bench_root() if root is None else Path(root)
        self.ledger_path = (
            self.root / "benchmarks" / "results" / "ledger.jsonl"
            if ledger_path is None
            else Path(ledger_path)
        )
        self.mode = bench_mode() if mode is None else mode
        if self.mode not in MODES:
            raise BenchSchemaError(f"mode must be one of {MODES}, got {self.mode!r}")
        self.seed = bench_seed() if seed is None else seed
        self.run_id = (
            os.environ.get(RUN_ID_ENV, "") if run_id is None else run_id
        )
        # Mode is part of the config hash (quick and full are different
        # experiments); the seed is deliberately NOT — the ledger keys
        # runs by (git SHA, config hash, seed), so seed-replicate runs
        # of one experiment share a config hash.
        self._builder = ManifestBuilder.begin(
            f"bench {name}", {"mode": self.mode}, seed=self.seed
        )
        # Wall-throughput sidecar: snapshot the engine's process-global
        # ledger now, diff it at emit time.  Costs two dict copies, and
        # needs no change in any bench script.
        self._wall0 = wall_snapshot()
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    @property
    def quick(self) -> bool:
        return self.mode == "quick"

    def configure(self, **config: Any) -> "BenchCase":
        """Record experiment knobs into the manifest config (chainable)."""
        self._builder.update_config(config)
        return self

    def emit(
        self,
        metrics: Mapping[str, float],
        specs: Mapping[str, MetricSpec | Mapping[str, Any]] | None = None,
        *,
        write_json: bool = True,
        append_ledger: bool = True,
        **extra: Any,
    ) -> BenchResult:
        """Publish the bench's headline metrics.

        Validates the record, writes ``BENCH_<name>.json`` at the bench
        root and appends one ledger line.  ``extra`` lands in the
        manifest's free-form section (artifact paths, table names, ...).
        """
        manifest = self._builder.finish(
            metrics={k: float(v) for k, v in metrics.items()}, **extra
        )
        result = BenchResult(
            name=self.name,
            mode=self.mode,
            seed=self.seed,
            run_id=self.run_id,
            metrics={k: float(v) for k, v in metrics.items()},
            specs=_coerce_specs(specs),
            wall=self._wall_delta(manifest),
            manifest=manifest,
        )
        errors = validate_bench_dict(result.to_dict())
        if errors:
            raise BenchSchemaError(
                f"bench {self.name} emitted an invalid record: " + "; ".join(errors)
            )
        if write_json:
            result.write(self.root)
        if append_ledger:
            BenchLedger(self.ledger_path).append(result)
        return result

    def _wall_delta(self, manifest: RunManifest) -> dict[str, float | None]:
        """The case's wall sidecar: ledger deltas since ``__init__``.

        Throughput is null when no engine loop ran during the case
        (analytic benches) — null, not zero, so the trend report can
        tell "no simulation" from "infinitely slow".
        """
        wall1 = wall_snapshot()
        loop_s = wall1["loop_s"] - self._wall0["loop_s"]
        events = wall1["events"] - self._wall0["events"]
        requests = wall1["requests"] - self._wall0["requests"]
        return {
            "wall_time_s": manifest.wall_time_s,
            "sim_loop_s": loop_s if loop_s > 0.0 else None,
            "wall_events_per_s": events / loop_s if loop_s > 0.0 else None,
            "wall_requests_per_s": requests / loop_s if loop_s > 0.0 else None,
            "peak_py_alloc_kb": peak_py_alloc_kb(),
        }
