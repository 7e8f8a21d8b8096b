"""Fig. 5: BER of reduced-state cells after cell-to-cell interference.

Paper claims: C2C BER reduced by up to 6x in NUNMA 1 vs baseline (ours
is stronger); NUNMA 3's BER is higher than NUNMA 1's and NUNMA 2's
because its raised verify voltages shrink the interference margins.
"""

from conftest import QUICK, write_table

from repro.analysis.experiments import run_fig5_c2c_ber


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "baseline_c2c_ber": 0.028999617834503704,
    "nunma1_c2c_ber": 0.0001368435651676516,
    "nunma1_reduction": 211.91802332082847,
    "nunma3_c2c_ber": 0.0006307021069450428,
}


def test_fig5_c2c_ber(results_dir):
    results = run_fig5_c2c_ber()

    lines = ["scheme      C2C BER      reduction vs baseline"]
    base = results["baseline"]
    for name in ("baseline", "nunma1", "nunma2", "nunma3"):
        lines.append(f"{name:10s}  {results[name]:.4e}  {base / results[name]:8.1f}x")
    write_table(results_dir, "fig5_c2c_ber", lines)

    metrics = {
        "baseline_c2c_ber": results["baseline"],
        "nunma1_c2c_ber": results["nunma1"],
        "nunma3_c2c_ber": results["nunma3"],
        "nunma1_reduction": base / results["nunma1"],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # Paper shape: every reduced config beats baseline; NUNMA 3 is the
    # worst of the three reduced configs.
    for config in ("nunma1", "nunma2", "nunma3"):
        assert results[config] < base
    assert results["nunma3"] > results["nunma1"]
    assert results["nunma3"] > results["nunma2"]
