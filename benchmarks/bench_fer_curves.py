"""ECC substrate validation: frame-error-rate curves per decoder.

Sweeps the raw BER and measures frame success for hard-decision
bit-flip, normalized min-sum and full sum-product decoding on the same
code and the same channel realizations — the waterfall-ordering check
that the decoders are implemented correctly (BP >= min-sum >> hard).
"""

import numpy as np
from conftest import BENCH_SEED, QUICK, write_table

from repro.ecc.ldpc.channel import NandReadChannel
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import BitFlipDecoder, MinSumDecoder
from repro.ecc.ldpc.sum_product import SumProductDecoder
from repro.errors import DecodingFailure

_BERS = (0.01, 0.03, 0.05)
_FRAMES = 10 if QUICK else 30


#: Exact quick-mode values of the headline metrics at seed
#: ``BENCH_SEED``; the test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "hard_success_at_005": 0.0,
    "minsum_success_at_001": 1.0,
    "minsum_success_at_005": 1.0,
    "sumproduct_success_at_005": 1.0,
}


def _run_curves():
    code = LdpcCode.regular(n=512, wc=3, wr=8, seed=123)
    decoders = {
        "bit-flip (hard)": ("hard", BitFlipDecoder(code, max_iterations=100)),
        "min-sum (soft)": ("soft", MinSumDecoder(code, max_iterations=40)),
        "sum-product (soft)": ("soft", SumProductDecoder(code, max_iterations=40)),
    }
    curves = {name: {} for name in decoders}
    for raw_ber in _BERS:
        rng = np.random.default_rng(BENCH_SEED + 6)
        channel = NandReadChannel(raw_ber, extra_levels=5)
        frames = []
        for _ in range(_FRAMES):
            codeword = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
            frames.append((codeword, channel.transmit(codeword, rng)))
        for name, (kind, decoder) in decoders.items():
            successes = 0
            for codeword, analog in frames:
                received = (
                    channel.hard_decisions(analog)
                    if kind == "hard"
                    else channel.llrs_for(analog)
                )
                try:
                    result = decoder.decode(received)
                except DecodingFailure:
                    continue
                successes += int(np.array_equal(result.codeword, codeword))
            curves[name][raw_ber] = successes / _FRAMES
    return curves


def test_fer_curves(results_dir):
    curves = _run_curves()

    lines = ["decoder             " + "  ".join(f"BER {b:<6}" for b in _BERS)]
    for name, curve in curves.items():
        lines.append(
            f"{name:18s}  " + "  ".join(f"{curve[b]:10.0%}" for b in _BERS)
        )
    lines.append("")
    lines.append(f"frame success over {_FRAMES} frames, LDPC(512), 5 extra sensing levels")
    write_table(results_dir, "fer_curves", lines)

    metrics = {
        "hard_success_at_005": curves["bit-flip (hard)"][0.05],
        "minsum_success_at_005": curves["min-sum (soft)"][0.05],
        "sumproduct_success_at_005": curves["sum-product (soft)"][0.05],
        "minsum_success_at_001": curves["min-sum (soft)"][0.01],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    for name, curve in curves.items():
        values = [curve[b] for b in _BERS]
        assert values == sorted(values, reverse=True), name  # FER worsens with BER
    # Soft decoding dominates hard decoding at the high-BER end.
    assert curves["min-sum (soft)"][0.05] > curves["bit-flip (hard)"][0.05]
    assert curves["sum-product (soft)"][0.05] >= curves["min-sum (soft)"][0.05] - 0.1
