"""§6.1's reliability frame: Eq. 1 UBER at the paper's operating points.

Paper setup: target UBER 1e-15, rate-8/9 LDPC on 4 KB blocks.  This
bench regenerates the required-correction-strength curve over the BER
range Table 4 spans and verifies the 1e-15 target is reachable
everywhere with a bounded correction budget.
"""

from conftest import QUICK, write_table

from repro.device.uber import (
    LDPC_CODEWORD_BITS,
    LDPC_INFO_BITS,
    TARGET_UBER,
    required_correctable_bits,
    uber,
)


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "required_bits_at_1e3": 83.0,
    "required_bits_at_corner": 754.0,
}


def test_uber_requirements(results_dir):
    bers = (1e-4, 5e-4, 1e-3, 4e-3, 1e-2, 1.6e-2)
    required = {p: required_correctable_bits(p) for p in bers}

    lines = [
        f"rate-8/9 LDPC, k={LDPC_INFO_BITS} info bits, "
        f"n={LDPC_CODEWORD_BITS} codeword bits, target UBER {TARGET_UBER:.0e}",
        "",
        "raw BER    required correctable bits   achieved UBER",
    ]
    for p in bers:
        k = required[p]
        achieved = uber(k, LDPC_CODEWORD_BITS, LDPC_INFO_BITS, p)
        lines.append(f"{p:8.1e}  {k:26d}   {achieved:.2e}")
    write_table(results_dir, "uber_requirements", lines)

    metrics = {
        "required_bits_at_1e3": required[1e-3],
        "required_bits_at_corner": required[1.6e-2],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    values = [required[p] for p in bers]
    assert values == sorted(values)  # correction need grows with BER
    # At the Table-4 corner (1.6e-2) the budget stays bounded but large —
    # the regime where hard-decision BCH stops being practical.
    assert 400 < required[1.6e-2] < 1200
    for p in bers:
        assert uber(required[p], LDPC_CODEWORD_BITS, LDPC_INFO_BITS, p) <= TARGET_UBER
