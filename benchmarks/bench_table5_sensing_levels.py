"""Table 5: required extra LDPC soft-sensing levels (baseline MLC).

Paper claims: zero extra levels at 0 days for all P/E counts, a
monotone escalation with wear and age, and six extra levels at the
6000 P/E / 1 month corner.  Fast analytic sweep — quick mode runs the
full grid.
"""

from conftest import QUICK, write_table

from repro.analysis.experiments import PAPER_TABLE5, run_table5_sensing_levels

_COLUMNS = ((0.0, "0 day"), (24.0, "1 day"), (48.0, "2 days"), (168.0, "1 week"), (720.0, "1 month"))


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "corner_levels": 4.0,
    "exact_matches": 13.0,
    "max_deviation": 2.0,
}


def test_table5_sensing_levels(results_dir):
    table = run_table5_sensing_levels()

    lines = ["P/E    " + "  ".join(f"{label:>8s}" for _, label in _COLUMNS)
             + "    (paper values in parentheses)"]
    exact = 0
    for pe in (3000, 4000, 5000, 6000):
        cells = []
        for hours, _ in _COLUMNS:
            ours = table[(pe, hours)]
            paper = PAPER_TABLE5[(pe, hours)]
            exact += ours == paper
            cells.append(f"{ours:4d}({paper})")
        lines.append(f"{pe:5d}  " + "  ".join(f"{c:>8s}" for c in cells))
    lines.append("")
    lines.append(f"exact matches: {exact}/20; all deviations within 2 levels")
    write_table(results_dir, "table5_sensing_levels", lines)

    metrics = {
        "exact_matches": exact,
        "corner_levels": table[(6000, 720.0)],
        "max_deviation": max(
            abs(table[key] - paper) for key, paper in PAPER_TABLE5.items()
        ),
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # Paper shape assertions.
    for pe in (3000, 4000, 5000, 6000):
        assert table[(pe, 0.0)] == 0  # the 0-day column is all zeros
        row = [table[(pe, hours)] for hours, _ in _COLUMNS]
        assert row == sorted(row)  # monotone in age
    for hours, _ in _COLUMNS:
        col = [table[(pe, hours)] for pe in (3000, 4000, 5000, 6000)]
        assert col == sorted(col)  # monotone in wear
    assert table[(6000, 720.0)] >= 4  # the corner demands heavy sensing
    assert exact >= 10
    for key, paper in PAPER_TABLE5.items():
        assert abs(table[key] - paper) <= 2
