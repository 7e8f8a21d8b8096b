"""Robustness: Table 5 under calibration-constant perturbations.

Scales each of the eight fitted constants by 0.8x and 1.25x (only 0.8x
in quick mode) and checks whether the Table 5 structure (the zero 0-day
column and monotonicity in wear and age) survives — the reproduction
does not hinge on the exact fitted point.
"""

from conftest import QUICK, write_table

from repro.analysis.sensitivity import run_sensitivity

_FACTORS = (0.8,) if QUICK else (0.8, 1.25)


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "max_cells_changed": 14.0,
    "max_level_delta": 3.0,
    "n_fragile": 0.0,
}


def test_sensitivity(results_dir):
    results = run_sensitivity(factors=_FACTORS)

    lines = ["constant      factor  cells changed  max delta  shape preserved"]
    for result in results:
        lines.append(
            f"{result.constant:12s}  {result.factor:6.2f}  "
            f"{result.cells_changed:13d}  {result.max_level_delta:9d}  "
            f"{'yes' if result.shape_preserved else 'NO'}"
        )
    fragile = [r for r in results if not r.shape_preserved]
    lines.append("")
    lines.append(
        "every perturbation preserves Table 5's structure"
        if not fragile
        else f"FRAGILE under: {[(r.constant, r.factor) for r in fragile]}"
    )
    write_table(results_dir, "sensitivity", lines)

    metrics = {
        "n_fragile": len(fragile),
        "max_cells_changed": max(r.cells_changed for r in results),
        "max_level_delta": max(r.max_level_delta for r in results),
    }
    if QUICK:
        assert metrics == QUICK_PINS

    assert not fragile
    # The matrix is genuinely sensitive to the constants (cells move),
    # just not structurally.
    assert any(r.cells_changed > 0 for r in results)
