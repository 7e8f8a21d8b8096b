"""Run manifests: what produced a result file, pinned for comparison.

Every simulation run can emit a :class:`RunManifest` alongside its
numbers, so result files stay comparable across commits: two manifests
with the same ``config_hash`` and ``seed`` measured the same
experiment, and the recorded git SHA, wall time and peak RSS say what
changed between them.

The manifest is deliberately plain data (one JSON object); collection
is a begin/finish pair so wall time brackets exactly the run:

    manifest = ManifestBuilder.begin("repro simulate", config, seed=1)
    ...  # run
    manifest = builder.finish(metrics=registry.snapshot())
    manifest.write(path)
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping


def fingerprint(body: Mapping[str, Any]) -> str:
    """16-hex-digit SHA-256 of ``body`` as sort-keyed JSON.

    The one fingerprint convention of run configs and of the channel,
    monitor and profile artifacts.  A top-level ``fingerprint`` key is
    left out, so recomputing on a stamped artifact verifies it; a value
    JSON cannot encode hashes through ``str``.
    """
    canonical = json.dumps(
        {key: value for key, value in body.items() if key != "fingerprint"},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: Stable short hash of a JSON-serialisable run configuration.
config_hash = fingerprint


def git_sha() -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a checkout.

    ``REPRO_GIT_SHA`` overrides (useful in CI where the workspace may
    be a shallow or detached checkout).
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def _ru_maxrss_to_kb(ru_maxrss: int, platform: str) -> int:
    """Normalise ``getrusage().ru_maxrss`` to KiB.

    Linux counts KiB, macOS counts bytes; the unit is a platform
    convention, not something inferable from the magnitude (a 50 MB
    macOS process reports < 2**32 "bytes" and a large Linux process can
    legitimately exceed 2**32 KiB), so branch on the platform.
    """
    if platform == "darwin":
        return int(ru_maxrss) // 1024
    return int(ru_maxrss)


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return _ru_maxrss_to_kb(usage.ru_maxrss, sys.platform)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one run.

    Attributes
    ----------
    command:
        What was run (CLI invocation or bench name).
    config:
        The JSON-serialisable experiment configuration.
    config_hash:
        Stable hash of ``config`` — the comparison key across PRs.
    seed:
        The run's RNG seed (None when the run is deterministic).
    git_sha:
        Repository HEAD at run time.
    started_utc:
        ISO-8601 UTC start timestamp.
    wall_time_s:
        Begin-to-finish wall time in seconds.
    peak_rss_kb:
        Peak resident set size in KiB (None when unavailable).
    peak_py_alloc_kb:
        Peak *traced Python* allocation in KiB, from
        :func:`repro.obs.profile.peak_py_alloc_kb`.  None unless
        :mod:`tracemalloc` was tracing when the run finished (e.g.
        ``repro profile --mode alloc``) — tracing costs 2-4x slowdown,
        so it is never on by default.
    metrics:
        Flat metric snapshot (typically ``MetricsRegistry.snapshot()``).
    fault_config:
        The active :class:`repro.faults.FaultConfig` as a plain dict,
        or None on fault-free runs.  Also merged into ``config`` under
        ``"faults"`` so it participates in ``config_hash`` — a faulty
        and a fault-free run never share a comparison key.
    extra:
        Free-form extras (per-system summaries, artifact paths, ...).
    """

    command: str
    config: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seed: int | None = None
    git_sha: str = "unknown"
    started_utc: str = ""
    wall_time_s: float = 0.0
    peak_rss_kb: int | None = None
    peak_py_alloc_kb: int | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    fault_config: dict[str, Any] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "started_utc": self.started_utc,
            "wall_time_s": self.wall_time_s,
            "peak_rss_kb": self.peak_rss_kb,
            "peak_py_alloc_kb": self.peak_py_alloc_kb,
            "metrics": self.metrics,
            "fault_config": self.fault_config,
            "extra": self.extra,
        }

    def write(self, path) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path) as handle:
            data = json.load(handle)
        return RunManifest(**data)


class ManifestBuilder:
    """Brackets a run: ``begin`` before, ``finish`` after."""

    def __init__(self, command: str, config: dict[str, Any], seed: int | None):
        self.command = command
        self.config = config
        self.seed = seed
        self._fault_config: dict[str, Any] | None = None
        self._started_utc = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        self._t0 = time.perf_counter()

    @classmethod
    def begin(
        cls,
        command: str,
        config: dict[str, Any] | None = None,
        seed: int | None = None,
    ) -> "ManifestBuilder":
        return cls(command, dict(config or {}), seed)

    def set_fault_config(
        self, fault_config: dict[str, Any] | None
    ) -> "ManifestBuilder":
        """Record the active fault-injection configuration.

        Pass :meth:`repro.faults.FaultConfig.to_dict`; the dict lands
        both in the manifest's ``fault_config`` field and (as
        ``config["faults"]``) in the hashed config, so enabling faults
        changes ``config_hash``.  Leave unset (or pass None) on
        fault-free runs — the hash then matches pre-fault manifests.
        """
        self._fault_config = dict(fault_config) if fault_config else None
        return self

    def finish(
        self,
        metrics: dict[str, float] | None = None,
        **extra: Any,
    ) -> RunManifest:
        config = dict(self.config)
        if self._fault_config is not None:
            config["faults"] = self._fault_config
        # Deferred: repro.obs.profile imports nothing from here, but
        # keeping manifest import-light avoids ordering surprises.
        from repro.obs.profile import peak_py_alloc_kb as _peak_py_alloc_kb

        return RunManifest(
            command=self.command,
            config=config,
            config_hash=config_hash(config),
            seed=self.seed,
            git_sha=git_sha(),
            started_utc=self._started_utc,
            wall_time_s=time.perf_counter() - self._t0,
            peak_rss_kb=peak_rss_kb(),
            peak_py_alloc_kb=_peak_py_alloc_kb(),
            metrics=dict(metrics or {}),
            fault_config=self._fault_config,
            extra=extra,
        )
