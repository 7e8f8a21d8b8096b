"""Ablation: ReducedCell pool size (the capacity/performance dial).

The paper fixes the pool at 64 GB of 256 GB (25 %).  This bench sweeps
the pool fraction on a read-heavy workload: a larger pool buys lower
mean sensing levels at a proportional capacity cost, saturating once
the HLO set fits.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.analysis.experiments import SystemExperimentConfig
from repro.baselines.systems import SystemConfig, build_system
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

N_REQUESTS = 4_000 if QUICK else 20_000
POOL_SWEEP = (0.0, 0.05, 0.15, 0.25)


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "full_pool_capacity_loss": 0.0,
    "full_pool_mean_extra_levels": 2.0848084544253633,
    "full_pool_mean_response_us": 353.81628515771797,
    "no_pool_mean_extra_levels": 2.0848084544253633,
}


def _run_sweep(shared_policy):
    config = SystemExperimentConfig(
        n_blocks=256, n_requests=N_REQUESTS, seed=BENCH_SEED
    )
    ssd_config = config.ssd_config()
    workload = make_workload("fin-2", ssd_config.logical_pages)
    trace = workload.generate(config.n_requests, seed=BENCH_SEED)
    out = {}
    for fraction in POOL_SWEEP:
        system_config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=config.buffer_pages,
            reduced_pool_fraction=fraction,
        )
        system = build_system("flexlevel", system_config, level_adjust=shared_policy)
        engine = DesSimulationEngine(
            system, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        result = engine.run(trace, "fin-2")
        out[fraction] = {
            "mean_response_us": result.mean_response_us(),
            "mean_extra_levels": result.stats["mean_extra_levels"],
            "capacity_loss": 0.25 * result.stats["reduced_logical_pages"]
            / ssd_config.logical_pages,
        }
    return out


def test_ablation_pool_size(results_dir, shared_policy):
    results = _run_sweep(shared_policy)

    lines = ["pool fraction  mean response (us)  mean extra levels  capacity loss"]
    for fraction, row in sorted(results.items()):
        lines.append(
            f"{fraction:13.2f}  {row['mean_response_us']:18.1f}  "
            f"{row['mean_extra_levels']:17.2f}  {row['capacity_loss']:12.2%}"
        )
    write_table(results_dir, "ablation_pool_size", lines)

    metrics = {
        "no_pool_mean_extra_levels": results[0.0]["mean_extra_levels"],
        "full_pool_mean_extra_levels": results[0.25]["mean_extra_levels"],
        "full_pool_mean_response_us": results[0.25]["mean_response_us"],
        "full_pool_capacity_loss": results[0.25]["capacity_loss"],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # No pool = plain LDPC-in-SSD behaviour; growing the pool lowers the
    # sensing burden and raises the capacity cost monotonically.
    losses = [results[f]["capacity_loss"] for f in sorted(results)]
    assert losses == sorted(losses)
    if not QUICK:
        levels = [results[f]["mean_extra_levels"] for f in sorted(results)]
        assert levels[0] == max(levels)
        assert results[0.25]["mean_extra_levels"] < results[0.0]["mean_extra_levels"]
