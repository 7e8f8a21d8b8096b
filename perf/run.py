"""The repository's benchmark.

    python3 perf/run.py --workload sim-read-hot --seed 3 --seconds 15 --trace 0
    python3 perf/run.py                # every workload, one subprocess each
    python3 perf/run.py --trace        # the traced run: per-layer metrics
    python3 perf/run.py --list         # workloads and metrics
    python3 perf/run.py --spread 10    # two alternating sets of 10 seeds

``BENCHMARK.json`` at the repository root is the only place that names
the workloads and the metrics with their units, directions and bounds.

One workload runs in this process: set-up (the program's import, then
the in-process set-up three times, median), one untimed warm-up
repetition, then a fixed number of timed repetitions (``--seconds``
divided by :data:`REP_SECONDS`: five at the default), each on a freshly
built system.  The fixed reference
kernel in :mod:`refkernel` is timed around every timed region, and
host-time metrics are normalised by it.  Every repetition's outputs are
checked, and a failed operation fails the run; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the program under test cannot be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import layers
import refkernel

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
RESULTS = PERF / "results"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Nominal seconds of one timed repetition.  The repetition count
#: follows from ``--seconds`` alone, never from how fast the program
#: runs, so two commits are always sampled the same number of times.
REP_SECONDS = 3.0
#: Seconds a single workload run may take before it is stopped.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def usage_error(message: str) -> SystemExit:
    print(f"perf: {message}", file=sys.stderr)
    return SystemExit(2)


def import_workloads():
    """The workloads module, with ``repro`` imported from this checkout."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise usage_error(f"cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise usage_error(f"repro was imported from {repro.__file__}, not {SRC}")
    return workloads


@dataclass
class Rep:
    """One timed repetition, with the reference-kernel times just
    before and after it."""

    seconds: float
    ref_s: tuple[float, float]
    outcome: Any
    totals: dict[str, tuple[int, float, float]] | None = None

    @property
    def raw_ops_per_s(self) -> float:
        return self.outcome.ops / self.seconds


def best_ops_per_s(reps: list[Rep]) -> float:
    """Normalised throughput of a run: the fastest repetition's rate
    times the fastest kernel run around the repetitions, over the
    kernel's nominal time.  Load on a shared host only ever slows a
    run down, so the fastest samples are the least disturbed ones."""
    ref_s = min(min(rep.ref_s) for rep in reps)
    return max(rep.raw_ops_per_s for rep in reps) * ref_s / refkernel.NOMINAL_S


def timed_reps(seconds: float) -> int:
    """Timed repetitions of a run given ``--seconds``: at least one."""
    return max(1, round(seconds / REP_SECONDS))


def run_reps(workload, count: int, timer=None) -> list[Rep]:
    """``count`` timed repetitions; with a ``timer`` installed, each
    records the per-callable totals of its timed region."""
    reps: list[Rep] = []
    ref_before = refkernel.timed()
    for _ in range(count):
        go = workload.prepare()
        gc.collect()
        before = timer.snapshot() if timer else None
        t0 = time.perf_counter()
        raw = go()
        elapsed = time.perf_counter() - t0
        totals = layers.delta(before, timer.snapshot()) if timer else None
        ref_after = refkernel.timed()
        outcome = workload.outcome(raw)
        del raw, go
        reps.append(Rep(elapsed, (ref_before, ref_after), outcome, totals))
        ref_before = ref_after
    return reps


def check(reps: list[Rep]) -> list[str]:
    """Failed output checks over every repetition of a run.  An
    operation that failed (a request that did not complete, an
    uncorrectable read, a frame decoded wrongly) fails the run."""
    errors = [error for rep in reps for error in rep.outcome.errors]
    errors += [
        f"{rep.outcome.failed} of {rep.outcome.ops} operations failed"
        for rep in reps
        if rep.outcome.failed
    ]
    fingerprints = sorted({rep.outcome.fingerprint for rep in reps})
    if len(fingerprints) > 1:
        errors.append(f"simulated outputs differ across repetitions: {fingerprints}")
    return list(dict.fromkeys(errors))


def peak_rss_mb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and KiB elsewhere.
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def measure(workload, seed: int, seconds: float, imported: tuple[float, float]):
    """The untraced run: end-to-end metrics.  ``imported`` is the
    program's import time and the reference-kernel time just before it."""
    import_s, ref_before_import = imported
    # Set-up is the import plus the in-process set-up, which runs
    # SETUP_REPEATS times; each timed span is normalised by the kernel
    # runs on either side of it.
    refs = [refkernel.timed()]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        refs.append(refkernel.timed())
    normalised = [
        setup * refkernel.NOMINAL_S * 2 / (before + after)
        for setup, before, after in zip(setups, refs, refs[1:])
    ]
    import_normalised = import_s * refkernel.NOMINAL_S * 2 / (ref_before_import + refs[0])
    warmup = run_reps(workload, 1)
    reps = run_reps(workload, timed_reps(seconds))
    metrics = {
        "ops_per_s": best_ops_per_s(reps),
        "setup_s": import_normalised + statistics.median(normalised),
        "peak_rss_mb": peak_rss_mb(),
        "sim_read_mean_us": reps[0].outcome.read_mean_us,
    }
    detail = {
        "raw": {
            "ops_per_s": max(rep.raw_ops_per_s for rep in reps),
            "setup_s": import_s + statistics.median(setups),
        },
        "setup": {"import_s": import_s, "setup_s": setups, "ref_s": [ref_before_import, *refs]},
    }
    return metrics, warmup + reps, reps, detail


def trace(workload, seed: int, seconds: float):
    """The traced run: per-layer metrics, and the tracing overhead
    measured against untraced repetitions of the same run; each half
    gets half the timed repetitions."""
    with layers.CallTimer() as timer:
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_wall = time.perf_counter() - t0
        setup_totals = timer.snapshot()
    half = max(1, timed_reps(seconds) // 2)
    warmup = run_reps(workload, 1)
    plain = run_reps(workload, half)
    with layers.CallTimer() as timer:
        traced = run_reps(workload, half, timer)
    totals = {
        name: tuple(sum(values) for values in zip(*(rep.totals[name] for rep in traced)))
        for name in traced[0].totals
    }
    shares = layers.self_shares(totals, sum(rep.seconds for rep in traced))
    setup_shares = layers.self_shares(setup_totals, setup_wall)
    metrics: dict[str, float] = {}
    for name, _, _ in layers.CALLABLES:
        metrics[f"{name}.calls"] = totals[name][0] / len(traced)
        metrics[f"{name}.self_share"] = shares[name]
    for layer in (*layers.LAYERS, "other"):
        metrics[f"{layer}.self_share"] = shares[layer]
        metrics[f"setup.{layer}.self_share"] = setup_shares[layer]
    metrics.update(traced[-1].outcome.ratios)
    metrics["trace_overhead"] = best_ops_per_s(traced) / best_ops_per_s(plain)
    detail = {
        "callables": {
            name: {
                "calls": calls,
                "mean_us": 1e6 * inclusive / calls if calls else 0.0,
                "self_mean_us": 1e6 * exclusive / calls if calls else 0.0,
            }
            for name, (calls, inclusive, exclusive) in totals.items()
        },
        "untraced_reps": [rep_record(rep) for rep in plain],
    }
    return metrics, warmup + plain + traced, traced, detail


def rep_record(rep: Rep) -> dict:
    return {
        "seconds": rep.seconds,
        "ref_s": rep.ref_s,
        "ops": rep.outcome.ops,
        "raw_ops_per_s": rep.raw_ops_per_s,
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_one(spec: dict, args: argparse.Namespace) -> int:
    ref_before_import = refkernel.timed()
    t0 = time.perf_counter()
    workloads = import_workloads()
    imported = (time.perf_counter() - t0, ref_before_import)
    workload = workloads.WORKLOADS[args.workload]()
    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        metrics, reps, timed, detail = trace(workload, args.seed, args.seconds)
    else:
        metrics, reps, timed, detail = measure(
            workload, args.seed, args.seconds, imported
        )
    units = {m["name"]: m["unit"] for m in spec[section]}
    if units.keys() != metrics.keys():
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(units.keys() - metrics.keys())}, "
            f"undeclared {sorted(metrics.keys() - units.keys())}"
        )
    errors = check(reps)
    result = {
        "correct": not errors,
        "attempted": sum(rep.outcome.ops for rep in reps),
        "failed": sum(rep.outcome.failed for rep in reps),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(
        f"{args.workload}  seed {args.seed}  {len(timed)} timed repetitions "
        f"(+1 warm-up)  fastest reference kernel {min(min(r.ref_s) for r in timed):.4f} s "
        f"(nominal {refkernel.NOMINAL_S} s)"
    )
    for name, unit in units.items():
        raw = detail.get("raw", {}).get(name)
        suffix = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{suffix}")
    report = reps[-1].outcome.report
    print("  simulated: " + ", ".join(f"{k} {v:.6g}" for k, v in report.items()))
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "errors": errors,
        "report": report,
        "fingerprint": reps[-1].outcome.fingerprint,
        "reps": [rep_record(rep) for rep in timed],
        **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


def child(name: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None, str]:
    """Run one workload in a fresh interpreter; its exit code, parsed
    result line (None if it printed none) and full output."""
    proc = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def run_all(spec: dict, args: argparse.Namespace) -> int:
    """Every workload, one at a time, each in its own subprocess."""
    results = {}
    status = 0
    for name in workload_names(spec):
        code, result, output = child(name, args.seed, args.seconds, args.trace)
        print(output, end="")
        if code != 0 or result is None:
            status = 1
        results[name] = result
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    print(f"\n{'metric':<44} " + " ".join(f"{w:>20}" for w in results))
    for metric in names:
        cells = [
            f"{r['metrics'][metric]['value']:>20.6g}" if r else f"{'-':>20}"
            for r in results.values()
        ]
        unit = next(m["unit"] for m in spec[section] if m["name"] == metric)
        print(f"{metric + ' (' + unit + ')':<44} " + " ".join(cells))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"all_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nresults written to {out.relative_to(ROOT)}")
    return status


def spread_stats(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
    }


def spread(spec: dict, args: argparse.Namespace) -> int:
    """Two sets of ``--spread`` runs per workload, each run on its own
    seed, alternating which set goes first in every round; prints each
    end-to-end metric's median, quartiles, quartile spread and range as
    shares of the median, and how far set B's median moved from A's.
    Rows ending in ``.raw`` are the host-time metrics before
    normalisation, for comparison."""
    n = args.spread
    names = [args.workload] if args.workload else workload_names(spec)
    seeds = {"A": range(1, n + 1), "B": range(1001, 1001 + n)}
    values: dict = {s: {w: {} for w in names} for s in seeds}
    status = 0
    for i in range(n):
        for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for name in names:
                seed = seeds[s][i]
                code, result, output = child(name, seed, args.seconds, 0)
                if code != 0 or result is None or not result["correct"]:
                    print(output, end="")
                    status = 1
                    continue
                record = json.loads(
                    (RESULTS / f"{name}_seed{seed}_trace0.json").read_text()
                )
                observed = {k: v["value"] for k, v in result["metrics"].items()}
                observed.update({f"{k}.raw": v for k, v in record["raw"].items()})
                for metric, value in observed.items():
                    values[s][name].setdefault(metric, []).append(value)
                print(f"round {i + 1}/{n} set {s} {name} seed {seed}: ok", flush=True)
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(f"{m}.raw", better, None) for m, better, _ in rows if m in ("ops_per_s", "setup_s")]
    table: dict = {}
    for name in names:
        print(f"\n{name}")
        print(
            f"  {'metric':<18} {'A median':>12} {'A q1':>12} {'A q3':>12} "
            f"{'A iqr':>7} {'A range':>8} {'B median':>12} {'B iqr':>7} "
            f"{'worse':>7} {'bound':>6}"
        )
        for metric, better, bound in rows:
            a = values["A"][name].get(metric, [])
            b = values["B"][name].get(metric, [])
            if len(a) < 2 or len(b) < 2:
                continue
            sa, sb = spread_stats(a), spread_stats(b)
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if better == "lower" else -change
            table.setdefault(name, {})[metric] = {
                "A": sa, "B": sb, "worse": worse, "bound": bound,
                "values": {"A": a, "B": b},
            }
            print(
                f"  {metric:<18} {sa['median']:>12.6g} {sa['q1']:>12.6g} "
                f"{sa['q3']:>12.6g} {sa['iqr_share']:>7.2%} {sa['range_share']:>8.2%} "
                f"{sb['median']:>12.6g} {sb['iqr_share']:>7.2%} {worse:>7.2%} "
                f"{'-' if bound is None else f'{bound:.2f}':>6}"
            )
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"spread_{n}.json"
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"\nspread written to {out.relative_to(ROOT)}")
    return status


def print_list(spec: dict) -> None:
    print(f"command: {' '.join(spec['command'])}  (run_seconds {spec['run_seconds']})")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<22} {w['why']}")
    for section in ("end_to_end", "per_layer"):
        print(f"{section} metrics:")
        for m in spec[section]:
            extra = f"  better {m['better']}" if "better" in m else ""
            extra += f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<44} {m['unit']:<9}{extra}")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the benchmark BENCHMARK.json describes."
    )
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help=f"measurement length: round(seconds / {REP_SECONDS:g}) timed repetitions",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): the traced run reporting per-layer metrics",
    )
    parser.add_argument("--list", action="store_true", help="list workloads and metrics")
    parser.add_argument(
        "--spread", type=int, metavar="N",
        help="run two alternating sets of N seeded runs per workload",
    )
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.spread is not None and args.spread < 2:
        parser.error("--spread needs at least 2 runs per set")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.list:
        print_list(spec)
        return 0
    if args.spread:
        return spread(spec, args)
    if args.workload is None:
        return run_all(spec, args)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
