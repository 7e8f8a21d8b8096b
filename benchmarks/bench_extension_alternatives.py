"""Extension: FlexLevel against the design alternatives it competes with.

Not in the paper — this bench answers the adoption question the paper
leaves open: how does selective Vth-level reduction compare to (a) the
progressive read-retry real controllers ship, (b) SLC caching at the
same capacity-loss budget, and (c) retention-aware refresh, which
spends endurance instead of capacity?
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.analysis.experiments import SystemExperimentConfig
from repro.baselines import (
    SystemConfig,
    build_extension_system,
    build_system,
)
from repro.core.level_adjust import CellMode
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

N_REQUESTS = 4_000 if QUICK else 25_000
_WORKLOADS = ("fin-2",) if QUICK else ("fin-2", "web-1", "prj-1")


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "flexlevel_capacity_loss": 0.0,
    "flexlevel_mean_response_us": 353.81628515771797,
    "ldpc_in_ssd_mean_response_us": 353.81628515771797,
    "ldpc_in_ssd_progressive_mean_response_us": 561.726476708941,
    "refresh_mean_response_us": 448.9846267055668,
    "refresh_total_programs": 1191.0,
    "slc_cache_mean_response_us": 353.81628515771797,
}


def _run_alternatives(shared_policy):
    config = SystemExperimentConfig(
        n_blocks=256, n_requests=N_REQUESTS, seed=BENCH_SEED
    )
    ssd_config = config.ssd_config()
    names = (
        ("ldpc-in-ssd", build_system),
        ("ldpc-in-ssd-progressive", build_extension_system),
        ("flexlevel", build_system),
        ("slc-cache", build_extension_system),
        ("refresh", build_extension_system),
    )
    out = {name: {"responses": [], "levels": [], "programs": [], "losses": []}
           for name, _ in names}
    for workload_name in _WORKLOADS:
        workload = make_workload(workload_name, ssd_config.logical_pages)
        trace = workload.generate(config.n_requests, seed=BENCH_SEED)
        for name, builder in names:
            system_config = SystemConfig(
                ssd=ssd_config,
                footprint_pages=workload.footprint_pages,
                buffer_pages=config.buffer_pages,
            )
            system = builder(name, system_config, level_adjust=shared_policy)
            engine = DesSimulationEngine(
                system, warmup_fraction=0.25, n_channels=1, retry_model=None
            )
            result = engine.run(trace, workload_name)
            loss = 0.0
            if name == "flexlevel":
                loss = (
                    0.25 * result.stats["reduced_logical_pages"]
                    / ssd_config.logical_pages
                )
            elif name == "slc-cache":
                loss = (
                    0.50
                    * system.ssd.pages_in_mode(CellMode.SLC)
                    / ssd_config.logical_pages
                )
            out[name]["responses"].append(result.mean_response_us())
            out[name]["levels"].append(result.stats["mean_extra_levels"])
            out[name]["programs"].append(result.stats["total_program_pages"])
            out[name]["losses"].append(loss)
    summary = {}
    for name, rows in out.items():
        n = len(_WORKLOADS)
        summary[name] = {
            "mean_response_us": sum(rows["responses"]) / n,
            "mean_extra_levels": sum(rows["levels"]) / n,
            "total_programs": sum(rows["programs"]),
            "capacity_loss": max(rows["losses"]),
        }
    return summary


def test_extension_alternatives(results_dir, shared_policy):
    results = _run_alternatives(shared_policy)

    lines = [f"means over {', '.join(_WORKLOADS)}:",
             "system                    response (us)  extra lvls  programs  capacity loss"]
    for name, row in results.items():
        lines.append(
            f"{name:24s}  {row['mean_response_us']:13.1f}  "
            f"{row['mean_extra_levels']:10.2f}  {row['total_programs']:8.0f}  "
            f"{row['capacity_loss']:12.2%}"
        )
    lines.append("")
    lines.append("refresh buys the lowest latency by spending writes (endurance);")
    lines.append("flexlevel/slc-cache spend capacity; progressive retry spends latency.")
    write_table(results_dir, "extension_alternatives", lines)

    metrics = {
        f"{name.replace('-', '_')}_mean_response_us": row["mean_response_us"]
        for name, row in results.items()
    }
    metrics["flexlevel_capacity_loss"] = results["flexlevel"]["capacity_loss"]
    metrics["refresh_total_programs"] = results["refresh"]["total_programs"]
    if QUICK:
        assert metrics == QUICK_PINS

    if not QUICK:
        # Structural expectations.
        assert (
            results["ldpc-in-ssd-progressive"]["mean_response_us"]
            > results["ldpc-in-ssd"]["mean_response_us"]
        )
        assert (
            results["flexlevel"]["mean_response_us"]
            < results["ldpc-in-ssd"]["mean_response_us"]
        )
        # Refresh pays in programs what it wins in latency.
        assert (
            results["refresh"]["total_programs"]
            > results["ldpc-in-ssd"]["total_programs"] * 1.3
        )
        assert results["refresh"]["capacity_loss"] == 0.0
