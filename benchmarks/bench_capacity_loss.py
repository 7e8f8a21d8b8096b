"""§5's capacity claim: AccessEval bounds the reduced-state footprint.

Paper claims: limiting LevelAdjust to a 64 GB pool of a 256 GB system
(25 % of capacity) turns the raw 25 % density loss into ~6 % of total
capacity; the observed loss per workload is at most that bound.
"""

from conftest import BENCH_WORKLOADS, QUICK, write_table


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "max_capacity_loss": 0.007034883720930233,
    "mean_capacity_loss": 0.0035174418604651163,
}


def _capacity_report(matrix, logical_pages):
    report = {}
    for run in matrix:
        if run.system != "flexlevel":
            continue
        reduced = run.stats["reduced_logical_pages"]
        report[run.workload] = {
            "reduced_fraction": reduced / logical_pages,
            "capacity_loss_fraction": 0.25 * reduced / logical_pages,
        }
    return report


def test_capacity_loss(results_dir, matrix_6000, experiment_config):
    logical = experiment_config.ssd_config().logical_pages
    report = _capacity_report(matrix_6000, logical)

    bound = 0.25 * 0.25  # full pool at 25 % density loss = 6.25 %
    lines = ["workload  reduced fraction  capacity loss (25% of it)"]
    for workload in BENCH_WORKLOADS:
        row = report[workload]
        lines.append(
            f"{workload:8s}  {row['reduced_fraction']:16.3f}  "
            f"{row['capacity_loss_fraction']:16.3%}"
        )
    lines.append("")
    lines.append(f"worst-case bound (pool full): {bound:.2%}  (paper: ~6%)")
    lines.append("raw LevelAdjust-only loss: 25.00%")
    write_table(results_dir, "capacity_loss", lines)

    losses = [report[w]["capacity_loss_fraction"] for w in BENCH_WORKLOADS]
    metrics = {
        "max_capacity_loss": max(losses),
        "mean_capacity_loss": sum(losses) / len(losses),
    }
    if QUICK:
        assert metrics == QUICK_PINS

    for workload in BENCH_WORKLOADS:
        loss = report[workload]["capacity_loss_fraction"]
        assert 0.0 <= loss <= bound + 1e-9
        # AccessEval's whole point: far below the raw 25 % loss
        assert loss < 0.25
