"""Extension: FlexLevel's device-level idea scaled to TLC.

Not in the paper (its §1 motivates denser cells as the problem driver):
eight-level TLC hits the extra-sensing wall at far lower wear than MLC,
and the generalized pair code (6-level reduced TLC) escapes it for a
16.7 % density loss — *less* than the paper's 25 % at MLC, because the
pair construction wastes a smaller fraction of a bigger grid.
"""

from conftest import QUICK, write_table

from repro.analysis.calibration import calibrated_analyzer
from repro.core.pair_code import density_summary, optimize_pair_code, slip_cost
from repro.device.coding import GrayCoding
from repro.device.voltages import reduced_tlc_plan, tlc_plan
from repro.ecc.ldpc.sensing import SensingLevelPolicy

PAIR_ITERATIONS = 200 if QUICK else 800


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "pair_bits_per_cell": 2.5,
    "pair_slip_cost_mean": 1.3027522935779816,
    "reduced_corner_levels": 0.0,
    "tlc_corner_levels": 6.0,
}


def _run_tlc_study():
    tlc = calibrated_analyzer(tlc_plan(), coding=GrayCoding(8))
    pair = optimize_pair_code(6, iterations=PAIR_ITERATIONS)
    reduced = calibrated_analyzer(reduced_tlc_plan(), coding=pair)
    policy = SensingLevelPolicy()
    grid = {}
    for pe in (1000, 2000, 3000):
        for hours in (24.0, 168.0, 720.0):
            tlc_ber = min(tlc.retention_ber(pe, hours).total, 1.0)
            red_ber = min(reduced.retention_ber(pe, hours).total, 1.0)
            grid[(pe, hours)] = {
                "tlc_ber": tlc_ber,
                "tlc_levels": policy.required_levels(tlc_ber),
                "reduced_ber": red_ber,
                "reduced_levels": policy.required_levels(red_ber),
            }
    return grid, slip_cost(pair), density_summary(6)


def test_extension_tlc(results_dir):
    grid, pair_cost, density = _run_tlc_study()

    lines = [
        "P/E    age (h)  TLC BER     TLC levels  reduced BER  reduced levels"
    ]
    for (pe, hours), row in sorted(grid.items()):
        lines.append(
            f"{pe:5d}  {hours:7.0f}  {row['tlc_ber']:.3e}  {row['tlc_levels']:10d}  "
            f"{row['reduced_ber']:.3e}  {row['reduced_levels']:14d}"
        )
    lines.append("")
    lines.append(
        f"6-level pair code: {density['pair_bits_per_cell']:.2f} bits/cell vs 3.00 "
        f"(16.7% loss vs the paper's 25% at MLC); "
        f"slip cost mean {pair_cost[0]:.2f} / worst {pair_cost[1]} bits"
    )
    write_table(results_dir, "extension_tlc", lines)

    metrics = {
        "tlc_corner_levels": grid[(3000, 720.0)]["tlc_levels"],
        "reduced_corner_levels": grid[(3000, 720.0)]["reduced_levels"],
        "pair_bits_per_cell": density["pair_bits_per_cell"],
        "pair_slip_cost_mean": pair_cost[0],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # TLC needs soft sensing at moderate wear; the reduced form does not.
    assert grid[(3000, 720.0)]["tlc_levels"] >= 4
    assert all(row["reduced_levels"] == 0 for row in grid.values())
    # Density argument: pair coding on 6 levels loses less than 25 %.
    assert 1 - density["pair_bits_per_cell"] / 3.0 < 0.25
