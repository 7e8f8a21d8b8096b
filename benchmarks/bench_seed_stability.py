"""Robustness: the Fig. 6(a) headline across trace seeds.

The synthetic workloads are seeded; the FlexLevel-vs-LDPC-in-SSD gain
must not be an artifact of one seed.  Three seeds, all seven workloads
(two workloads in quick mode).
"""

import numpy as np
from conftest import BENCH_SEED, BENCH_WORKLOADS, QUICK, write_table

from repro.analysis.experiments import SystemExperimentConfig
from repro.baselines import SystemConfig, build_system
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

N_REQUESTS = 4_000 if QUICK else 20_000
_SEEDS = (BENCH_SEED, BENCH_SEED + 1, BENCH_SEED + 2)


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "mean_gain": 0.0,
    "min_gain": 0.0,
    "seed_spread": 0.0,
}


def _run_seeds(shared_policy, seeds=_SEEDS):
    config = SystemExperimentConfig(n_blocks=256, n_requests=N_REQUESTS)
    ssd_config = config.ssd_config()
    gains = {}
    for seed in seeds:
        ratios = []
        for workload_name in BENCH_WORKLOADS:
            workload = make_workload(workload_name, ssd_config.logical_pages)
            trace = workload.generate(config.n_requests, seed=seed)
            means = {}
            for name in ("ldpc-in-ssd", "flexlevel"):
                system_config = SystemConfig(
                    ssd=ssd_config,
                    footprint_pages=workload.footprint_pages,
                    buffer_pages=config.buffer_pages,
                )
                system = build_system(name, system_config, level_adjust=shared_policy)
                engine = DesSimulationEngine(
                    system, warmup_fraction=0.25, n_channels=1, retry_model=None
                )
                result = engine.run(trace, workload_name)
                means[name] = result.mean_response_us()
            ratios.append(means["flexlevel"] / means["ldpc-in-ssd"])
        gains[seed] = 1.0 - float(np.mean(ratios))
    return gains


def test_seed_stability(results_dir, shared_policy):
    gains = _run_seeds(shared_policy)

    lines = ["seed   flexlevel gain vs ldpc-in-ssd"]
    for seed, gain in sorted(gains.items()):
        lines.append(f"{seed:4d}   {gain:+.1%}")
    spread = max(gains.values()) - min(gains.values())
    lines.append("")
    lines.append(f"spread across seeds: {spread:.1%}")
    write_table(results_dir, "seed_stability", lines)

    metrics = {
        "min_gain": min(gains.values()),
        "mean_gain": float(np.mean(list(gains.values()))),
        "seed_spread": spread,
    }
    if QUICK:
        assert metrics == QUICK_PINS

    assert len(gains) == len(_SEEDS)
    if not QUICK:
        # The gain exists at every seed and is stable.
        assert all(gain > 0.0 for gain in gains.values())
        assert spread < 0.15
