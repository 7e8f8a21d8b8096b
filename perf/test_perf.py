"""Self-tests of the benchmark; run with ``python3 -m pytest perf/``."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()

TINY = {
    "sim-read-hot": lambda: workloads.TraceReplay("web-1", "flexlevel", 400),
    "sim-write-gc": lambda: workloads.TraceReplay("prj-1", "leveladjust-only", 400),
    "serve-noisy-neighbor": lambda: workloads.NoisyNeighbor(60),
    "ecc-oracle": lambda: workloads.EccOracle(ldpc_frames=1, bch_frames=1),
}


def test_benchmark_json_names_every_workload():
    assert run.workload_names(SPEC) == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_runs_clean_and_repeats(name):
    workload = TINY[name]()
    workload.setup(3)
    first = workload.outcome(workload.prepare()())
    second = workload.outcome(workload.prepare()())
    assert first.ops > 0
    assert first.failed == 0
    assert first.errors == []
    assert first.read_mean_us > 0.0
    assert first.fingerprint == second.fingerprint
    assert set(first.ratios) == set(workloads.RATIOS)


def test_seed_changes_the_inputs():
    prints = []
    for seed in (1, 2):
        workload = TINY["sim-read-hot"]()
        workload.setup(seed)
        prints.append(workload.outcome(workload.prepare()()).fingerprint)
    assert prints[0] != prints[1]


def _emitted(monkeypatch, tmp_path, capsys, name: str, trace: int) -> tuple[int, dict]:
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
    code = run.run_one(SPEC, args)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(
    monkeypatch, tmp_path, capsys, trace
):
    code, result = _emitted(monkeypatch, tmp_path, capsys, "sim-write-gc", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    for key in ("git_sha", "seed", "nproc", "python", "reps"):
        assert key in record


def test_end_to_end_metrics_are_positive(monkeypatch, tmp_path, capsys):
    _, result = _emitted(monkeypatch, tmp_path, capsys, "ecc-oracle", 0)
    assert all(body["value"] > 0 for body in result["metrics"].values())


class _CorruptingDecoder(workloads.MinSumDecoder):
    """A min-sum decoder that flips the first bit of every codeword."""

    def decode(self, llrs):
        result = super().decode(llrs)
        codeword = result.codeword.copy()
        codeword[0] ^= 1
        return dataclasses.replace(result, codeword=codeword)


def test_a_wrongly_decoded_frame_fails_the_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "MinSumDecoder", _CorruptingDecoder)
    code, result = _emitted(monkeypatch, tmp_path, capsys, "ecc-oracle", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_repetition_count_depends_only_on_seconds():
    assert run.timed_reps(SPEC["run_seconds"]) == 5
    assert run.timed_reps(0.0) == 1


def test_trace_restores_every_wrapped_callable(monkeypatch, tmp_path, capsys):
    originals = [
        vars(owner)[attr]
        for owner, attr in (layers._resolve(m, p) for _, m, p in layers.CALLABLES)
    ]
    _emitted(monkeypatch, tmp_path, capsys, "serve-noisy-neighbor", 1)
    after = [
        vars(owner)[attr]
        for owner, attr in (layers._resolve(m, p) for _, m, p in layers.CALLABLES)
    ]
    assert all(a is b for a, b in zip(originals, after))


def test_call_timer_restores_after_an_exception():
    owner, attr = layers._resolve("repro.ftl.ssd", "Ssd.read_info")
    original = vars(owner)[attr]
    with pytest.raises(RuntimeError):
        with layers.CallTimer():
            assert vars(owner)[attr] is not original
            raise RuntimeError("boom")
    assert vars(owner)[attr] is original


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("perf_fake_layer")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_exclusive_time_with_a_fake_clock(fake_layer):
    ticks = iter(range(100))
    table = (
        ("core.fake.outer", "perf_fake_layer", "outer"),
        ("ftl.fake.inner", "perf_fake_layer", "inner"),
    )
    with layers.CallTimer(table, clock=lambda: float(next(ticks))) as timer:
        assert fake_layer.outer() == 2
    assert fake_layer.outer.__name__ == "outer" and not hasattr(
        fake_layer.outer, "__wrapped__"
    )
    totals = timer.snapshot()
    # outer: clock 0 -> 3; inner, called inside it: 1 -> 2.
    assert totals["core.fake.outer"] == (1, 3.0, 2.0)
    assert totals["ftl.fake.inner"] == (1, 1.0, 1.0)
    for calls, inclusive, exclusive in totals.values():
        assert exclusive <= inclusive
    shares = layers.self_shares(totals, wall_s=10.0)
    assert shares["core"] == pytest.approx(0.2)
    assert shares["ftl"] == pytest.approx(0.1)
    assert sum(shares[layer] for layer in (*layers.LAYERS, "other")) == pytest.approx(
        1.0, abs=1e-12
    )


def test_every_callable_belongs_to_a_layer():
    for name, module, path in layers.CALLABLES:
        assert layers.layer_of(name) in layers.LAYERS
        layers._resolve(module, path)


def test_refkernel_imports_nothing_from_the_program():
    tree = ast.parse((PERF / "refkernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported <= {"__future__", "gc", "heapq", "time"}
    assert refkernel.run(1000) == refkernel.run(1000)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perf").mkdir()
    for source in PERF.glob("*.py"):
        shutil.copy(source, tmp_path / "perf")
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ecc-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
