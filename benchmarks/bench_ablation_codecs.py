"""Ablation/throughput: the ECC substrate itself.

Benchmarks the real codecs (BCH encode/decode, LDPC min-sum decode)
and verifies the soft-vs-hard decoding gap that motivates soft-decision
LDPC in the first place (paper §2.2).
"""

import time

import numpy as np
import pytest
from conftest import QUICK, write_table

from repro.ecc.bch import BchCode
from repro.ecc.ldpc.channel import NandReadChannel
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import BitFlipDecoder, MinSumDecoder
from repro.errors import DecodingFailure

N_FRAMES = 12 if QUICK else 40

#: Recorded decode wall times in seconds (2-core x86 host).  Wall time
#: is environment noise, so each is gated with a wide band: a decode
#: may take at most ``1 + DECODE_TOLERANCE`` times its recorded value.
RECORDED_DECODE_S = {
    "bch": {"mean_decode_s": 0.000395, "min_decode_s": 0.000255},
    "ldpc_minsum": {"mean_decode_s": 0.000178, "min_decode_s": 0.000113},
}
DECODE_TOLERANCE = 0.5

#: Exact quick-mode values of the soft-vs-hard headline metrics; the
#: test asserts them when ``QUICK`` is set.
QUICK_PINS = {
    "hard_success": 0.4166666666666667,
    "soft_hard_gap": 0.5833333333333334,
    "soft_success": 1.0,
}


def time_decode(decode, received, budget_s=1.0, min_rounds=5):
    """Call ``decode(received)`` repeatedly for about ``budget_s``.

    Returns the last result and the mean and minimum seconds per call.
    """
    times = []
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        result = decode(received)
        times.append(time.perf_counter() - t0)
    return result, {"mean_decode_s": sum(times) / len(times), "min_decode_s": min(times)}


def assert_decode_within_band(codec, measured):
    for metric, recorded in RECORDED_DECODE_S[codec].items():
        assert measured[metric] <= (1 + DECODE_TOLERANCE) * recorded, metric


@pytest.fixture(scope="module")
def ldpc_code():
    return LdpcCode.regular(n=512, wc=3, wr=8, seed=99)


def test_bench_bch_decode():
    code = BchCode(m=10, t=8, shortened_k=512)
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, 512).astype(np.uint8)
    codeword = code.encode(message)
    corrupted = codeword.copy()
    corrupted[rng.choice(code.codeword_length, size=8, replace=False)] ^= 1

    result, measured = time_decode(code.decode, corrupted)
    assert np.array_equal(result, message)
    assert_decode_within_band("bch", measured)


def test_bench_ldpc_minsum_decode(ldpc_code):
    rng = np.random.default_rng(6)
    decoder = MinSumDecoder(ldpc_code)
    channel = NandReadChannel(0.01, extra_levels=4)
    codeword = ldpc_code.encode(rng.integers(0, 2, ldpc_code.k).astype(np.uint8))
    llrs = channel.read(codeword, rng)

    result, measured = time_decode(decoder.decode, llrs)
    assert np.array_equal(result.codeword, codeword)
    assert_decode_within_band("ldpc_minsum", measured)


def test_soft_vs_hard_frame_error_rate(results_dir, ldpc_code):
    """The LDPC premise: soft sensing rescues frames hard decisions lose."""
    raw_ber = 0.03

    def run():
        rng = np.random.default_rng(7)
        channel = NandReadChannel(raw_ber, extra_levels=5)
        minsum = MinSumDecoder(ldpc_code, max_iterations=40)
        bitflip = BitFlipDecoder(ldpc_code, max_iterations=100)
        soft_ok = hard_ok = 0
        for _ in range(N_FRAMES):
            cw = ldpc_code.encode(
                rng.integers(0, 2, ldpc_code.k).astype(np.uint8)
            )
            analog = channel.transmit(cw, rng)
            try:
                if np.array_equal(minsum.decode(channel.llrs_for(analog)).codeword, cw):
                    soft_ok += 1
            except DecodingFailure:
                pass
            try:
                if np.array_equal(bitflip.decode(channel.hard_decisions(analog)).codeword, cw):
                    hard_ok += 1
            except DecodingFailure:
                pass
        return soft_ok, hard_ok

    soft_ok, hard_ok = run()
    lines = [
        f"raw BER {raw_ber}, {N_FRAMES} frames, LDPC({ldpc_code.n}, {ldpc_code.k})",
        f"soft-decision (min-sum, 5 extra levels) success: {soft_ok}/{N_FRAMES}",
        f"hard-decision (bit-flip)               success: {hard_ok}/{N_FRAMES}",
    ]
    write_table(results_dir, "ablation_codecs_soft_vs_hard", lines)
    metrics = {
        "soft_success": soft_ok / N_FRAMES,
        "hard_success": hard_ok / N_FRAMES,
        "soft_hard_gap": (soft_ok - hard_ok) / N_FRAMES,
    }
    if QUICK:
        assert metrics == QUICK_PINS
    assert soft_ok > hard_ok
