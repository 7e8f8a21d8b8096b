"""Ablation: write-buffer size (the paper adds a write-back buffer to
FlashSim without sizing it).

Sweeps the buffer on a write-heavy workload: a larger buffer absorbs
more rewrites of hot pages, cutting flash programs and hence GC.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.analysis.experiments import SystemExperimentConfig
from repro.baselines.systems import SystemConfig, build_system
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

N_REQUESTS = 4_000 if QUICK else 20_000
BUFFER_SWEEP = (0, 64, 512, 2048)


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "buffer0_mean_response_us": 964.4631747167372,
    "buffer2048_flash_programs": 339.0,
    "buffer512_mean_response_us": 649.295622338561,
    "program_reduction": 19.250737463126843,
}


def _run_sweep(shared_policy):
    config = SystemExperimentConfig(
        n_blocks=256, n_requests=N_REQUESTS, seed=BENCH_SEED
    )
    ssd_config = config.ssd_config()
    workload = make_workload("prj-1", ssd_config.logical_pages)
    trace = workload.generate(config.n_requests, seed=BENCH_SEED)
    out = {}
    for buffer_pages in BUFFER_SWEEP:
        system_config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=buffer_pages,
        )
        system = build_system("flexlevel", system_config, level_adjust=shared_policy)
        engine = DesSimulationEngine(
            system, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        result = engine.run(trace, "prj-1")
        out[buffer_pages] = {
            "mean_response_us": result.mean_response_us(),
            "flash_programs": result.stats["total_program_pages"],
            "erases": result.stats["erase_blocks"],
            "buffer_hits": result.stats["buffer_hits"],
        }
    return out


def test_ablation_buffer_size(results_dir, shared_policy):
    results = _run_sweep(shared_policy)

    lines = ["buffer (pages)  response (us)  flash programs  erases  read hits"]
    for pages, row in sorted(results.items()):
        lines.append(
            f"{pages:14d}  {row['mean_response_us']:13.1f}  "
            f"{row['flash_programs']:14.0f}  {row['erases']:6.0f}  "
            f"{row['buffer_hits']:9.0f}"
        )
    write_table(results_dir, "ablation_buffer", lines)

    metrics = {
        "buffer0_mean_response_us": results[0]["mean_response_us"],
        "buffer512_mean_response_us": results[512]["mean_response_us"],
        "buffer2048_flash_programs": results[2048]["flash_programs"],
        "program_reduction": results[0]["flash_programs"]
        / max(results[2048]["flash_programs"], 1.0),
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # A bigger buffer absorbs rewrites: flash programs fall.
    assert results[2048]["flash_programs"] < results[0]["flash_programs"]
    if not QUICK:
        programs = [results[p]["flash_programs"] for p in sorted(results)]
        assert programs == sorted(programs, reverse=True)
