"""Wall-clock performance observability: where the *Python* time goes.

Everything else under :mod:`repro.obs` measures **simulated** time —
spans, attribution and windowed telemetry are all virtual-microsecond
quantities, reproducible byte for byte from a seed.  This module is the
other axis: how many wall-clock seconds and bytes the simulator itself
burns producing those virtual microseconds.  That is the measurement
layer the DES raw-speed refactor (ROADMAP item 1) is planned and
defended with: you cannot claim a 10x request-throughput win without a
per-event-type wall profile of the loop you are rewriting and a
regression-gated events/sec floor to beat.

Three profiling modes, one ``repro.profile/1`` artifact schema:

* **instrument** — :class:`EventLoopProfiler`, which times the
  engine's event handlers and per-request phases
  (sense/transfer/decode/retry/GC/trace) through class-level shims
  installed for the duration of a ``with`` block.  Per-event-type
  dispatch counts with exclusive/inclusive wall time, the loop's wall
  time, and the profiler's own calibrated self-overhead.  Zero-cost
  outside the block: the engine knows nothing of the profiler.
* **sample** — :class:`StackSampler`, a background-thread stack
  sampler (configurable Hz) whose output is the standard
  collapsed-stack format (``frame;frame;frame count``) consumable by
  ``flamegraph.pl`` and speedscope, with the sampler's busy fraction
  reported as self-overhead.
* **alloc** — :func:`allocation_profile` over :mod:`tracemalloc`:
  top-N allocation sites and peak traced bytes.

Wall-clock numbers are **data, never identity**: they live in the
artifact's ``wall`` subtree and in run manifests, and are excluded
from every config hash and from :func:`profile_fingerprint` (the
deterministic identity of a profile artifact), so two same-seed runs
compare equal no matter how fast the machine was.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.manifest import fingerprint

#: Schema tag stamped into every profile artifact.
PROFILE_SCHEMA = "repro.profile/1"

#: The three profiling modes ``repro profile --mode`` accepts.
PROFILE_MODES = ("instrument", "sample", "alloc")

#: Artifact keys that hold wall-clock (machine-dependent) data; they
#: are stripped before fingerprinting so same-seed runs compare equal.
WALL_KEYS = ("wall", "manifest")

#: (section key, module, class, method) of every callable the
#: instrumenting profiler times.  ``event.*`` are the event loop's two
#: handlers; ``phase.*`` are the per-request phases inside them.
SECTIONS: tuple[tuple[str, str, str, str], ...] = (
    ("event.arrival", "repro.sim.des.engine", "DesSimulationEngine", "_arrival"),
    ("event.request_complete", "repro.sim.des.engine", "DesSimulationEngine",
     "_request_complete"),
    ("phase.sense", "repro.baselines.systems", "StorageSystem", "read_page_breakdown"),
    ("phase.transfer", "repro.baselines.systems", "StorageSystem", "serve_write_page"),
    ("phase.retry", "repro.sim.des.retry", "ReadRetryModel", "sample_outcome"),
    ("phase.gc", "repro.sim.des.scheduler", "ChannelScheduler", "admit"),
    ("phase.gc", "repro.sim.des.scheduler", "ChannelScheduler", "add_background"),
    ("phase.decode", "repro.sim.des.observers", "RegistryObserver", "decoded"),
    ("phase.trace", "repro.sim.des.observers", "TracerObserver", "arrival"),
    ("phase.trace", "repro.sim.des.observers", "TracerObserver", "op_serviced"),
    ("phase.trace", "repro.sim.des.observers", "TracerObserver", "dispatched"),
)


def peak_py_alloc_kb() -> int | None:
    """Peak tracemalloc-traced bytes of this process in KiB.

    None when :mod:`tracemalloc` is not tracing — tracing costs real
    wall time, so it is opt-in (``repro profile --mode alloc``), never
    ambient.
    """
    if not tracemalloc.is_tracing():
        return None
    _, peak = tracemalloc.get_traced_memory()
    return peak // 1024


# ---------------------------------------------------------------------------
# Instrumenting profiler
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    """One open ``begin``/``end`` section on the profiler stack."""

    key: str
    t0: float
    child_s: float = 0.0


class EventLoopProfiler:
    """Stack-based wall-time accounting for an engine's event loop.

    Inside ``with profiler:`` every callable of :data:`SECTIONS` is
    replaced by a shim that brackets each call with ``begin(key)`` /
    ``end()``, so phase sections nest inside event sections; the
    originals are put back on exit.  The profiler accumulates per-key
    dispatch counts, *inclusive* wall time (the whole section) and
    *exclusive* wall time (minus nested children).  Per-event-type
    inclusive times sum to the loop wall time handed over with
    :meth:`finish_loop`, up to the profiler's calibrated overhead plus
    loop bookkeeping — the residual the artifact reports as
    ``unattributed_s``.

    The clock is :func:`time.perf_counter` (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[_Frame] = []
        self._count: dict[str, int] = {}
        self._inclusive_s: dict[str, float] = {}
        self._exclusive_s: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.loop_wall_s = 0.0
        self.loop_events = 0
        self.loop_requests = 0
        self._per_record_s = self._calibrate()

    def _calibrate(self, pairs: int = 512) -> float:
        """Measured wall cost of one timed call.

        Times ``pairs`` calls of a shim around an empty function, then
        drops their records; the result scales the reported
        ``self_overhead_s`` so the loop-reconciliation check has a
        principled budget.
        """
        timed = self._shim("calibration", lambda: None)
        t0 = self.clock()
        for _ in range(pairs):
            timed()
        elapsed = self.clock() - t0
        for table in (self._count, self._inclusive_s, self._exclusive_s):
            del table["calibration"]
        return elapsed / pairs

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "EventLoopProfiler":
        if self._saved:
            raise ConfigurationError("profiler is already installed")
        try:
            for key, module, owner_name, attr in SECTIONS:
                owner = getattr(importlib.import_module(module), owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr, self._shim(key, original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _shim(self, key: str, fn: Callable) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            begin(key)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return timed

    # -- recording ---------------------------------------------------------

    def begin(self, key: str, t0: float | None = None) -> None:
        """Open a section; ``t0`` backdates it (e.g. to before a pop)."""
        self._stack.append(_Frame(key, self.clock() if t0 is None else t0))

    def end(self) -> float:
        """Close the innermost section; returns its inclusive seconds."""
        if not self._stack:
            raise ConfigurationError("profiler end() without begin()")
        t1 = self.clock()
        frame = self._stack.pop()
        total = t1 - frame.t0
        self._count[frame.key] = self._count.get(frame.key, 0) + 1
        self._inclusive_s[frame.key] = (
            self._inclusive_s.get(frame.key, 0.0) + total
        )
        self._exclusive_s[frame.key] = (
            self._exclusive_s.get(frame.key, 0.0) + total - frame.child_s
        )
        if self._stack:
            self._stack[-1].child_s += total
        return total

    def finish_loop(self, wall_s: float, events: int, requests: int) -> None:
        """Record the whole loop's wall time and throughput inputs."""
        if self._stack:
            raise ConfigurationError(
                f"profiler loop finished with {len(self._stack)} open sections"
            )
        self.loop_wall_s = wall_s
        self.loop_events = events
        self.loop_requests = requests

    # -- reporting ---------------------------------------------------------

    @property
    def n_records(self) -> int:
        return sum(self._count.values())

    def self_overhead_s(self) -> float:
        """Calibrated estimate of the profiler's own recording cost.

        Per-pair cost times records, times a 2x safety factor: the
        calibration loop runs hot-cached, real sections pay colder
        branches, so the honest budget errs wide.
        """
        return 2.0 * self._per_record_s * self.n_records

    def section(self, prefix: str) -> dict[str, dict[str, float]]:
        """Per-key stats for one namespace (``"event"`` or ``"phase"``)."""
        out: dict[str, dict[str, float]] = {}
        dot = prefix + "."
        for key in sorted(self._count):
            if not key.startswith(dot):
                continue
            out[key[len(dot):]] = {
                "count": self._count[key],
                "inclusive_s": self._inclusive_s[key],
                "exclusive_s": self._exclusive_s[key],
            }
        return out

    def to_dict(self) -> dict[str, Any]:
        """The instrument-mode ``wall`` payload of the artifact."""
        events = self.section("event")
        attributed = sum(row["inclusive_s"] for row in events.values())
        wall = self.loop_wall_s
        return {
            "loop": {
                "wall_s": wall,
                "events": self.loop_events,
                "requests": self.loop_requests,
                "events_per_s": self.loop_events / wall if wall > 0 else 0.0,
                "requests_per_s": (
                    self.loop_requests / wall if wall > 0 else 0.0
                ),
                "attributed_s": attributed,
                "unattributed_s": wall - attributed,
                "self_overhead_s": self.self_overhead_s(),
            },
            "events": events,
            "phases": self.section("phase"),
        }


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


class StackSampler:
    """Thread-based stack sampler emitting collapsed-stack output.

    A daemon thread wakes ``hz`` times per second, grabs the target
    thread's current frame via :func:`sys._current_frames` and counts
    the root-first stack.  :meth:`collapsed` renders the counts in the
    flamegraph/speedscope collapsed format: semicolon-joined frames,
    one space, the sample count.

    Self-overhead is reported as the sampler thread's busy seconds over
    the sampled wall interval — an upper bound on the GIL time stolen
    from the workload.
    """

    def __init__(self, hz: float = 97.0, max_depth: int = 128):
        if not 1.0 <= hz <= 1000.0:
            raise ConfigurationError(f"sampling rate {hz} outside [1, 1000] Hz")
        self.hz = hz
        self.max_depth = max_depth
        self.n_samples = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self._counts: dict[tuple[str, ...], int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_id: int | None = None
        self._t0 = 0.0

    def start(self) -> None:
        """Begin sampling the *calling* thread."""
        if self._thread is not None:
            raise ConfigurationError("sampler already started")
        self._target_id = threading.get_ident()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and close the wall interval."""
        if self._thread is None:
            raise ConfigurationError("sampler never started")
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.wall_s = time.perf_counter() - self._t0

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.is_set():
            t0 = time.perf_counter()
            frame = sys._current_frames().get(self._target_id)
            if frame is not None:
                stack: list[str] = []
                while frame is not None and len(stack) < self.max_depth:
                    code = frame.f_code
                    stack.append(
                        f"{code.co_name} "
                        f"({code.co_filename.rsplit('/', 1)[-1]}"
                        f":{frame.f_lineno})"
                    )
                    frame = frame.f_back
                key = tuple(reversed(stack))  # root first
                self._counts[key] = self._counts.get(key, 0) + 1
                self.n_samples += 1
            self.busy_s += time.perf_counter() - t0
            self._stop.wait(max(0.0, interval - (time.perf_counter() - t0)))

    def overhead_fraction(self) -> float:
        """Sampler busy time over the sampled wall interval."""
        return self.busy_s / self.wall_s if self.wall_s > 0 else 0.0

    def collapsed(self) -> list[str]:
        """Collapsed-stack lines, heaviest stacks first."""
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [";".join(stack) + f" {count}" for stack, count in ranked]

    def to_dict(self, top: int | None = None) -> dict[str, Any]:
        """The sample-mode ``wall`` payload of the artifact."""
        lines = self.collapsed()
        return {
            "hz": self.hz,
            "n_samples": self.n_samples,
            "wall_s": self.wall_s,
            "sampler_busy_s": self.busy_s,
            "self_overhead_fraction": self.overhead_fraction(),
            "distinct_stacks": len(lines),
            "collapsed": lines if top is None else lines[:top],
        }


def parse_collapsed(lines: list[str]) -> list[tuple[list[str], int]]:
    """Parse collapsed-stack lines back into (frames, count) pairs.

    Raises :class:`~repro.errors.ConfigurationError` on malformed
    lines — the shape guarantee the profiler test suite pins so the
    output stays consumable by flamegraph.pl/speedscope.
    """
    out: list[tuple[list[str], int]] = []
    for line in lines:
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text or not count_text.isdigit() or int(count_text) < 1:
            raise ConfigurationError(f"malformed collapsed-stack line: {line!r}")
        frames = stack_text.split(";")
        if not all(frames):
            raise ConfigurationError(f"empty frame in collapsed line: {line!r}")
        out.append((frames, int(count_text)))
    return out


# ---------------------------------------------------------------------------
# Allocation profiler
# ---------------------------------------------------------------------------


def allocation_profile(
    run: Callable[[], Any], top: int = 15, nframes: int = 1
) -> dict[str, Any]:
    """Run ``run()`` under :mod:`tracemalloc`; return the alloc payload.

    Top-N allocation sites (``file:lineno``) by total size, plus the
    peak and final traced byte counts.  Tracing starts fresh (existing
    tracing is restarted so the peak brackets exactly this run) and is
    stopped before returning unless it was already on.
    """
    if top < 0:
        raise ConfigurationError(f"negative allocation-site count: {top}")
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.stop()
    tracemalloc.start(nframes)
    try:
        run()
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        if was_tracing:
            tracemalloc.start(nframes)
    sites = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        sites.append(
            {
                "site": f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}",
                "size_kb": stat.size / 1024.0,
                "count": stat.count,
            }
        )
    return {
        "peak_kb": peak / 1024.0,
        "current_kb": current / 1024.0,
        "nframes": nframes,
        "top": sites,
    }


# ---------------------------------------------------------------------------
# Artifact identity
# ---------------------------------------------------------------------------


def _strip_wall(node: Any) -> Any:
    if isinstance(node, dict):
        return {
            key: _strip_wall(value)
            for key, value in node.items()
            if key not in WALL_KEYS
        }
    if isinstance(node, list):
        return [_strip_wall(item) for item in node]
    return node


def profile_fingerprint(artifact: dict[str, Any]) -> str:
    """Deterministic identity of a profile artifact.

    Hashes the artifact with every wall-clock subtree (``wall``,
    embedded ``manifest``) removed: two same-seed runs of the same
    config fingerprint identically however fast the machine ran them,
    which is exactly the property the config hash has and the wall
    numbers must not break.

    Idempotent over its own output: a stored top-level ``fingerprint``
    key is ignored, so recomputing on a written artifact verifies it.
    """
    return fingerprint(_strip_wall(artifact))


# ---------------------------------------------------------------------------
# Workload profiling driver (used by ``repro profile`` and tests)
# ---------------------------------------------------------------------------


def _loop_payload(result: Any) -> dict[str, Any]:
    """The shared ``wall.loop`` subtree for sample/alloc artifacts."""
    return {
        "wall_s": result.wall_loop_s,
        "events": result.wall_events,
        "requests": result.wall_requests,
        "events_per_s": result.wall_events_per_s(),
        "requests_per_s": result.wall_requests_per_s(),
    }


def profile_workload(
    workload: str,
    *,
    mode: str = "instrument",
    system: str = "flexlevel",
    requests: int = 30_000,
    blocks: int = 256,
    pe: float = 6000.0,
    seed: int = 1,
    channels: int = 4,
    retry: bool = True,
    hz: float = 97.0,
    top: int = 15,
    registry: Any = None,
) -> dict[str, Any]:
    """Profile one workload replay and return the ``repro.profile/1`` artifact.

    The keyword form of :func:`profile_replay`: the run arguments build
    a :class:`repro.sim.replay.Replay` with the default warmup.
    """
    # Deferred: repro.sim imports repro.obs.metrics, so a module-level
    # import here would be a package cycle.
    from repro.sim.replay import Replay

    run = Replay(
        workload,
        requests,
        blocks=blocks,
        pe=pe,
        seed=seed,
        channels=channels,
        retry=retry,
    )
    return profile_replay(
        run, mode=mode, system=system, hz=hz, top=top, registry=registry
    )


def profile_replay(
    run: Any,
    *,
    mode: str = "instrument",
    system: str = "flexlevel",
    hz: float = 97.0,
    top: int = 15,
    registry: Any = None,
) -> dict[str, Any]:
    """Profile ``system`` replaying ``run`` (a :class:`repro.sim.replay.Replay`).

    The deterministic half of the artifact (config echo plus the run's
    simulated-time summary) is independent of the machine; everything
    wall-clock lives under ``"wall"`` and is excluded from
    :func:`profile_fingerprint` and from config hashing.
    """
    from repro.obs.metrics import MetricsRegistry

    if mode not in PROFILE_MODES:
        raise ConfigurationError(
            f"unknown profile mode {mode!r}; choose from {PROFILE_MODES}"
        )
    registry = MetricsRegistry() if registry is None else registry
    # The trace is built before, and outside, the profiled region.
    trace = run.trace

    if mode == "sample":
        engine = run.engine(system, registry=registry)
        sampler = StackSampler(hz=hz)
        sampler.start()
        try:
            result = engine.run(trace, run.workload)
        finally:
            sampler.stop()
        wall: dict[str, Any] = {
            "loop": _loop_payload(result),
            "sampler": sampler.to_dict(top=None),
        }
    elif mode == "alloc":
        holder: dict[str, Any] = {}
        # The allocation trace covers the system build and the replay.
        alloc = allocation_profile(
            lambda: holder.update(result=run.replay(system, registry=registry)),
            top=top,
        )
        result = holder["result"]
        wall = {"loop": _loop_payload(result), "alloc": alloc}
    else:
        engine = run.engine(system, registry=registry)
        profiler = EventLoopProfiler()
        with profiler:
            result = engine.run(trace, run.workload)
        profiler.finish_loop(
            result.wall_loop_s, result.wall_events, result.wall_requests
        )
        wall = profiler.to_dict()

    return {
        "schema": PROFILE_SCHEMA,
        "mode": mode,
        "workload": run.workload,
        "system": system,
        # Constant: keeps the artifact schema and fingerprints unchanged.
        "engine": "des",
        "n_channels": run.channels,
        "requests": run.requests,
        "seed": run.seed,
        "retry": run.retry,
        "simulated": {
            "n_requests": result.n_requests,
            "mean_response_us": result.mean_response_us(),
            **result.percentiles(),
        },
        "wall": wall,
    }


__all__ = [
    "PROFILE_MODES",
    "PROFILE_SCHEMA",
    "SECTIONS",
    "EventLoopProfiler",
    "StackSampler",
    "allocation_profile",
    "parse_collapsed",
    "peak_py_alloc_kb",
    "profile_fingerprint",
    "profile_replay",
    "profile_workload",
]
