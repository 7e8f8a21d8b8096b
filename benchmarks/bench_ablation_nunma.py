"""Ablation: NUNMA margin allocation vs uniform margins.

DESIGN.md calls out NUNMA as a separable design choice: this bench
compares the basic LevelAdjust plan (uniform margins) against the three
non-uniform configurations on both noise axes, and verifies the paper's
motivating observation that retention errors concentrate on the high
Vth level.
"""

from conftest import QUICK, write_table

from repro.analysis.calibration import calibrated_analyzer
from repro.core.nunma import basic_reduced_plan
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.voltages import reduced_plan


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "basic_level2_share": 0.7527160101879687,
    "basic_retention_ber": 0.009086597325902786,
    "nunma2_retention_ber": 0.0026805427535722026,
    "nunma3_c2c_ber": 0.0006307021069450428,
    "nunma3_retention_ber": 0.0005892129845244802,
}


def _run_ablation():
    coding = ReduceCodeCoding()
    plans = {"basic": basic_reduced_plan()}
    for config in ("nunma1", "nunma2", "nunma3"):
        plans[config] = reduced_plan(config)
    out = {}
    for name, plan in plans.items():
        analyzer = calibrated_analyzer(plan, coding=coding)
        breakdown = analyzer.retention_ber(5000, 720.0)
        out[name] = {
            "retention_ber": breakdown.total,
            "c2c_ber": analyzer.c2c_ber().total,
            "level2_share": breakdown.per_level.get(2, 0.0),
        }
    return out


def test_ablation_nunma_margins(results_dir):
    results = _run_ablation()

    lines = ["plan    retention BER (5000 P/E, 1 mo)   C2C BER     level-2 error share"]
    for name in ("basic", "nunma1", "nunma2", "nunma3"):
        row = results[name]
        lines.append(
            f"{name:7s} {row['retention_ber']:.4e}               "
            f"{row['c2c_ber']:.4e}  {row['level2_share']:.0%}"
        )
    lines.append("")
    lines.append("paper §4.2: with uniform margins, 78% of retention errors sit on "
                 "level 2 (15% on level 1) — the NUNMA motivation")
    write_table(results_dir, "ablation_nunma", lines)

    metrics = {
        "basic_retention_ber": results["basic"]["retention_ber"],
        "nunma2_retention_ber": results["nunma2"]["retention_ber"],
        "nunma3_retention_ber": results["nunma3"]["retention_ber"],
        "nunma3_c2c_ber": results["nunma3"]["c2c_ber"],
        "basic_level2_share": results["basic"]["level2_share"],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # Uniform margins leave most retention errors on the top level...
    assert results["basic"]["level2_share"] > 0.5
    # ...and NUNMA's non-uniform allocation cuts retention BER.
    assert results["nunma2"]["retention_ber"] < results["basic"]["retention_ber"]
    assert results["nunma3"]["retention_ber"] < results["basic"]["retention_ber"]
    # The trade: higher verify voltages cost interference margin.
    assert results["nunma3"]["c2c_ber"] > results["nunma1"]["c2c_ber"]
