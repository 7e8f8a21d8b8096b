"""Ablation: the AccessEval Lf x Lsensing rule vs naive policies.

The paper picks N = M = 2 with the threshold at the top score.  This
bench compares that rule against promote-everything-old (ignore read
frequency) and promote-all-hot (ignore sensing cost) on fin-2: the
combined rule should promote far less than promote-everything while
keeping most of the sensing-level reduction.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.analysis.experiments import SystemExperimentConfig
from repro.baselines.systems import SystemConfig, build_system
from repro.core.hlo import OverheadRule
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

N_REQUESTS = 4_000 if QUICK else 20_000


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "combined_mean_response_us": 353.81628515771797,
    "combined_migration_programs": 0.0,
    "combined_promotions": 0.0,
    "greedy_promotions": 1191.0,
    "promotion_saving": 1191.0,
}


def _run_variants(shared_policy):
    config = SystemExperimentConfig(
        n_blocks=256, n_requests=N_REQUESTS, seed=BENCH_SEED
    )
    ssd_config = config.ssd_config()
    workload = make_workload("fin-2", ssd_config.logical_pages)
    trace = workload.generate(config.n_requests, seed=BENCH_SEED)
    variants = {
        # the paper's rule: hot AND expensive
        "lf-x-lsensing": dict(freq_levels=2, sensing_buckets=2),
        # expensive alone qualifies (threshold 2 reachable with Lf = 1)
        "any-old-page": dict(freq_levels=2, sensing_buckets=2, threshold=2),
    }
    out = {}
    for name, rule_kwargs in variants.items():
        system_config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=config.buffer_pages,
            freq_levels=rule_kwargs["freq_levels"],
            sensing_buckets=rule_kwargs["sensing_buckets"],
        )
        system = build_system("flexlevel", system_config, level_adjust=shared_policy)
        if "threshold" in rule_kwargs:
            system.access_eval.identifier.rule = OverheadRule(
                freq_levels=rule_kwargs["freq_levels"],
                sensing_buckets=rule_kwargs["sensing_buckets"],
                max_extra_levels=shared_policy.sensing.max_levels,
                threshold=rule_kwargs["threshold"],
            )
        engine = DesSimulationEngine(
            system, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        result = engine.run(trace, "fin-2")
        out[name] = {
            "mean_response_us": result.mean_response_us(),
            "mean_extra_levels": result.stats["mean_extra_levels"],
            "promotions": result.stats["promotions"],
            "demotions": result.stats["demotions"],
            "migration_programs": result.stats["migration_program_pages"],
        }
    return out


def test_ablation_hlo_rule(results_dir, shared_policy):
    results = _run_variants(shared_policy)

    lines = ["policy         response (us)  extra levels  promotions  migr. programs"]
    for name, row in results.items():
        lines.append(
            f"{name:13s}  {row['mean_response_us']:13.1f}  "
            f"{row['mean_extra_levels']:12.2f}  {row['promotions']:10.0f}  "
            f"{row['migration_programs']:14.0f}"
        )
    lines.append("")
    lines.append("the paper's combined rule needs fewer migrations per unit of "
                 "sensing-level reduction than promoting every old page")
    write_table(results_dir, "ablation_hlo_rule", lines)

    combined = results["lf-x-lsensing"]
    greedy = results["any-old-page"]
    metrics = {
        "combined_mean_response_us": combined["mean_response_us"],
        "combined_promotions": combined["promotions"],
        "combined_migration_programs": combined["migration_programs"],
        "greedy_promotions": greedy["promotions"],
        "promotion_saving": greedy["promotions"]
        / max(combined["promotions"], 1.0),
    }
    if QUICK:
        assert metrics == QUICK_PINS
    if not QUICK:
        assert combined["promotions"] < greedy["promotions"]
        assert combined["migration_programs"] < greedy["migration_programs"]
