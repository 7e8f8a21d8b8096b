"""Shared fixtures for the figure and table benches.

Heavy experiment results (the trace-simulation matrices) are computed
once per session and shared across benches; every bench writes its
paper-style table to ``benchmarks/results/``.

Quick/full mode is not a per-script knob: every bench reads the shared
:data:`QUICK` flag from ``REPRO_BENCH_QUICK``.  Quick mode shrinks
scales to CI-smoke size, and there each bench also asserts its
headline metrics against the exact values in its ``QUICK_PINS`` dict
(recorded at seed :data:`BENCH_SEED`).  Full mode is the paper-scale
run; its shape assertions stay, its numbers are not pinned.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    SystemExperimentConfig,
    run_workload_matrix,
)
from repro.core.level_adjust import LevelAdjustPolicy
from repro.traces.workloads import workload_names

RESULTS_DIR = Path(__file__).resolve().parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The trace seed every bench derives its streams from; the quick pins
#: hold at this seed only.
BENCH_SEED = 1

#: The workload set system-level benches sweep (shrunk in quick mode).
BENCH_WORKLOADS = tuple(workload_names()[:2] if QUICK else workload_names())


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_table(results_dir: Path, name: str, lines: list[str]) -> None:
    """Persist a bench's output table and echo it to stdout."""
    text = "\n".join(lines)
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)


@pytest.fixture(scope="session")
def experiment_config() -> SystemExperimentConfig:
    """The standard system-experiment scale used by the figure benches."""
    return SystemExperimentConfig(
        n_blocks=256,
        n_requests=6_000 if QUICK else 40_000,
        seed=BENCH_SEED,
    )


@pytest.fixture(scope="session")
def shared_policy() -> LevelAdjustPolicy:
    """One BER oracle shared by all system benches (evals are cached)."""
    return LevelAdjustPolicy()


@pytest.fixture(scope="session")
def matrix_6000(experiment_config, shared_policy):
    """The workload x 4-system matrix at 6000 P/E (Figs. 6a and 7)."""
    return run_workload_matrix(
        experiment_config, workloads=BENCH_WORKLOADS, policy=shared_policy
    )
