"""§1's motivating claim: hard-decision BCH stops working at 2x-nm BERs.

"As technology node scales down to 2Xnm ... conventional hard-decision
ECC is no longer sufficient."  Two measurements:

1. Paper scale, exact: a rate-8/9 BCH on 4 KB blocks can correct at
   most ``parity / m = 4096 / 16 = 256`` bit errors; the binomial frame
   -failure probability at raw BER 1e-2 (expected 369 errors) is ~1.
2. Scaled-down, empirical: same-rate BCH and soft LDPC codes run on
   identical-BER channels; BCH collapses between 1e-3 and 1.5e-2 while
   soft LDPC keeps decoding.
"""

import numpy as np
from conftest import QUICK, write_table
from scipy import stats

from repro.ecc.bch import BchCode
from repro.ecc.ldpc.channel import NandReadChannel
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import MinSumDecoder
from repro.errors import DecodingFailure

_FRAMES = 8 if QUICK else 25
_BERS = (1e-3, 8e-3, 1.5e-2)


#: Exact quick-mode values of the headline metrics; the test
#: asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "bch_failure_at_0015": 1.0,
    "bch_success_at_0015": 0.0,
    "bch_t_max": 256.0,
    "ldpc_success_at_0015": 1.0,
}


def _paper_scale_bch():
    """Exact frame-failure probability of rate-8/9 BCH on 4 KB blocks."""
    n_bits = 4096 * 8 * 9 // 8  # 36864-bit codeword
    parity = n_bits - 4096 * 8
    t_max = parity // 16  # m = 16 fields cover n = 65535
    return {
        "t_max": t_max,
        "failure": {
            ber: float(stats.binom.sf(t_max, n_bits, ber)) for ber in _BERS
        },
    }


def _small_scale_mc():
    """Same-rate empirical comparison at a tractable codeword length."""
    rng = np.random.default_rng(17)
    # rate ~0.89 both: BCH(m=10, t=11) shortened to k=910; LDPC wc=3/wr=27.
    bch = BchCode(m=10, t=11, shortened_k=910)
    ldpc = LdpcCode.regular(n=1026, wc=3, wr=27, seed=201)
    minsum = MinSumDecoder(ldpc, max_iterations=50)
    out = {}
    for raw_ber in _BERS:
        channel = NandReadChannel(raw_ber, extra_levels=6)
        bch_ok = ldpc_ok = 0
        for _ in range(_FRAMES):
            message = rng.integers(0, 2, bch.message_length).astype(np.uint8)
            codeword = bch.encode(message)
            flips = rng.random(codeword.size) < raw_ber
            try:
                if np.array_equal(bch.decode(codeword ^ flips), message):
                    bch_ok += 1
            except DecodingFailure:
                pass
            payload = rng.integers(0, 2, ldpc.k).astype(np.uint8)
            sent = ldpc.encode(payload)
            try:
                result = minsum.decode(channel.read(sent, rng))
                if np.array_equal(result.codeword, sent):
                    ldpc_ok += 1
            except DecodingFailure:
                pass
        out[raw_ber] = {"bch": bch_ok / _FRAMES, "ldpc": ldpc_ok / _FRAMES}
    return out


def test_motivation_bch_vs_ldpc(results_dir):
    paper_scale = _paper_scale_bch()
    curves = _small_scale_mc()

    lines = [
        f"paper scale (4 KB, rate 8/9): BCH corrects at most "
        f"{paper_scale['t_max']} bits per codeword",
        "raw BER   exact BCH frame-failure probability",
    ]
    for ber, failure in sorted(paper_scale["failure"].items()):
        lines.append(f"{ber:8.1e}  {failure:.3e}")
    lines.append("")
    lines.append("scaled-down empirical (rate ~0.89 both):")
    lines.append("raw BER   BCH(t=11) success   soft LDPC success")
    for ber, row in sorted(curves.items()):
        lines.append(f"{ber:8.1e}  {row['bch']:17.0%}  {row['ldpc']:17.0%}")
    write_table(results_dir, "motivation_bch_vs_ldpc", lines)

    metrics = {
        "bch_t_max": paper_scale["t_max"],
        "bch_failure_at_0015": paper_scale["failure"][1.5e-2],
        "bch_success_at_0015": curves[1.5e-2]["bch"],
        "ldpc_success_at_0015": curves[1.5e-2]["ldpc"],
    }
    if QUICK:
        assert metrics == QUICK_PINS

    # Paper scale is exact/analytic: BCH is fine at 1e-3 and certain to
    # fail at 1.5e-2 regardless of the Monte-Carlo frame budget.
    assert paper_scale["failure"][1e-3] < 1e-6
    assert paper_scale["failure"][1.5e-2] > 0.999
    if not QUICK:
        # Small scale: the same regime change, measured.
        assert curves[1e-3]["bch"] >= 0.9
        assert curves[1.5e-2]["bch"] <= 0.3
        assert curves[1.5e-2]["ldpc"] >= 0.7
