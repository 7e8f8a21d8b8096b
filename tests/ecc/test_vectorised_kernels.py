"""Differential tests: the whole-array ECC kernels against the scalar
loops they replaced (:mod:`tests.ecc.scalar_reference`).

Check messages are compared bit for bit (``tobytes``), so even the sign
of a zero must agree; decodes must agree on codewords, iteration counts
and exceptions.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BchCode
from repro.ecc.ldpc.channel import NandReadChannel
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import EdgeLayout, MinSumDecoder
from repro.ecc.ldpc.sum_product import SumProductDecoder
from repro.errors import ConfigurationError, DecodingFailure
from tests.ecc import scalar_reference as ref


def irregular_h(seed: int = 5) -> np.ndarray:
    """A random irregular ``H`` with checks of degree 0, 1 and 2 and a
    variable that no check covers."""
    rng = np.random.default_rng(seed)
    h = (rng.random((48, 96)) < 0.07).astype(np.uint8)
    h[0] = 0
    h[1] = 0
    h[1, 5] = 1
    h[2] = 0
    h[2, [3, 7]] = 1
    h[:, 90] = 0
    return h


CODES = {
    "regular": LdpcCode.regular(n=256, wc=3, wr=8, seed=21),
    "irregular": LdpcCode(irregular_h()),
}


def var_messages(kind: str, n_edges: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.normal(0.0, 3.0, n_edges)
    if kind == "ties":  # quantised: exact magnitude ties and zeros
        return rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n_edges)
    if kind == "equal":
        return rng.choice([-1.5, 1.5], n_edges)
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0, 1.0, -3.0], n_edges)
    raise ValueError(kind)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def outcome(decode, llrs):
    try:
        result = decode(llrs)
    except DecodingFailure as failure:
        return ("fail", failure.iterations)
    return (result.codeword.tobytes(), result.iterations, result.converged)


class TestEdgeLayout:
    def test_segments_cover_non_empty_checks(self):
        h = irregular_h()
        edges = EdgeLayout(h)
        degrees = h.sum(axis=1)
        assert edges.n_edges == int(degrees.sum())
        assert np.array_equal(edges.stops - edges.starts, degrees[degrees > 0])
        checks, variables = np.nonzero(h)
        assert np.array_equal(edges.var, variables)
        assert np.array_equal(edges.inactive, degrees[checks] < 2)
        assert np.array_equal(np.flatnonzero(degrees > 0)[edges.segment], checks)

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_satisfied_matches_dense_syndrome(self, name, rng):
        code = CODES[name]
        edges = EdgeLayout(code.h)
        for _ in range(20):
            word = rng.integers(0, 2, code.n, dtype=np.uint8)
            assert edges.satisfied(word) == code.is_codeword(word)
        codeword = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
        assert edges.satisfied(codeword)

    def test_empty_matrix(self):
        edges = EdgeLayout(np.zeros((3, 5), dtype=np.uint8))
        assert edges.n_edges == 0 and edges.starts.size == 0
        assert edges.satisfied(np.ones(5, dtype=np.uint8))


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("kind", ["gaussian", "ties", "equal", "signed-zeros"])
class TestCheckMessages:
    def test_minsum(self, name, kind):
        code = CODES[name]
        rng = np.random.default_rng(7)
        for normalization in (0.75, 1.0):
            decoder = MinSumDecoder(code, normalization=normalization)
            for _ in range(5):
                v = var_messages(kind, decoder.edges.n_edges, rng)
                assert_bits_equal(
                    decoder._check_messages(v),
                    ref.minsum_check_messages(code.h, v, normalization),
                )

    def test_sum_product(self, name, kind):
        code = CODES[name]
        rng = np.random.default_rng(8)
        decoder = SumProductDecoder(code)
        for _ in range(5):
            v = var_messages(kind, decoder.edges.n_edges, rng)
            assert_bits_equal(
                decoder._check_messages(v), ref.sumproduct_check_messages(code.h, v)
            )


def test_sum_product_zero_fallback_hits_double_zero_checks():
    """Two exact zeros in one check: every leave-one-out product is 0."""
    code = CODES["regular"]
    decoder = SumProductDecoder(code)
    v = np.random.default_rng(3).normal(0.0, 2.0, decoder.edges.n_edges)
    v[decoder.edges.starts[:10]] = 0.0
    v[decoder.edges.starts[:5] + 1] = 0.0
    assert_bits_equal(
        decoder._check_messages(v), ref.sumproduct_check_messages(code.h, v)
    )


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("ber", [0.005, 0.03, 0.07])
def test_decodes_match_scalar_loop(name, ber):
    code = CODES[name]
    rng = np.random.default_rng(int(ber * 1000))
    channel = NandReadChannel(ber, extra_levels=3)
    minsum = MinSumDecoder(code, max_iterations=15)
    sum_product = SumProductDecoder(code, max_iterations=15)
    failures = 0
    for frame in range(12):
        sent = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
        llrs = channel.read(sent, rng)
        if frame % 4 == 3:  # quantised LLRs with exact zeros and ties
            llrs = np.round(llrs / 4.0) * 2.0
        expected = outcome(
            lambda x: ref.soft_decode(
                code, x, lambda h, v: ref.minsum_check_messages(h, v, 0.75), 15
            ),
            llrs,
        )
        assert outcome(minsum.decode, llrs) == expected
        failures += expected[0] == "fail"
        assert outcome(sum_product.decode, llrs) == outcome(
            lambda x: ref.soft_decode(code, x, ref.sumproduct_check_messages, 15),
            llrs,
        )
    # The heaviest channel must exercise the non-convergence path too.
    assert failures > 0 if ber == 0.07 else failures == 0


@pytest.mark.parametrize("decoder_class", [MinSumDecoder, SumProductDecoder])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteLlrs:
    def test_all_bad(self, decoder_class, bad):
        code = CODES["regular"]
        with pytest.raises(ConfigurationError, match="finite"):
            decoder_class(code).decode(np.full(code.n, bad))

    def test_one_bad(self, decoder_class, bad):
        code = CODES["regular"]
        llrs = np.full(code.n, 4.0)
        llrs[17] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            decoder_class(code).decode(llrs)


# --- BCH ------------------------------------------------------------------------


def bch_outcome(decode, received):
    try:
        return decode(received).tobytes()
    except DecodingFailure:
        return "fail"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bch_kernels_match_scalar(data):
    """Shortened BCH codes, m = 4..10: encoder, syndromes, Chien search
    and the decode outcome agree with the scalar loops."""
    m = data.draw(st.integers(4, 10), label="m")
    t = data.draw(st.integers(1, 6), label="t")
    try:
        natural = BchCode(m=m, t=t)
    except ConfigurationError:
        assume(False)
    code = BchCode(m=m, t=t, shortened_k=data.draw(st.integers(1, natural.k)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    message = rng.integers(0, 2, code.message_length, dtype=np.uint8)
    codeword = code.encode(message)
    assert_bits_equal(codeword, ref.bch_encode(code, message))
    n_errors = min(data.draw(st.integers(0, t + 3)), code.codeword_length)
    received = codeword.copy()
    received[rng.choice(code.codeword_length, n_errors, replace=False)] ^= 1

    syndromes = code._syndromes(received)
    assert syndromes == ref.bch_syndromes(code, received)
    if any(syndromes):
        locator = code._berlekamp_massey(syndromes)
        assert code._chien_search(locator) == ref.bch_chien_search(code, locator)
    assert bch_outcome(code.decode, received) == bch_outcome(
        lambda x: ref.bch_decode(code, x), received
    )


def test_bch_locator_root_in_virtual_pad_raises():
    """Overloading a shortened code can yield a locator that splits
    fully, with roots in the virtual zero pad: no error can sit there,
    so the decode must fail rather than correct the wrong bits."""
    code = BchCode(m=6, t=3, shortened_k=12)
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, code.message_length, dtype=np.uint8)
    received = code.encode(message)
    received[rng.choice(code.codeword_length, code.t + 1, replace=False)] ^= 1
    locator = code._berlekamp_massey(code._syndromes(received))
    roots = ref.bch_locator_roots(code, locator)
    assert len(roots) == len(locator) - 1
    assert any(code.message_length <= root < code.k for root in roots)
    with pytest.raises(DecodingFailure, match="roots found"):
        code.decode(received)


class TestLdpcXorKernels:
    """XOR-reduce encoder and syndrome against the dense uint8 mat-vecs."""

    @pytest.fixture(
        scope="class",
        params=[(96, 3, 8, 11), (512, 3, 8, 2015), (540, 3, 27, 3)],
        ids=["n96", "n512", "n540-rate8/9"],
    )
    def code(self, request):
        n, wc, wr, seed = request.param
        return LdpcCode.regular(n=n, wc=wc, wr=wr, seed=seed)

    def test_encode_random_messages(self, code):
        rng = np.random.default_rng(5)
        for density in (0.02, 0.5, 0.98):
            for _ in range(5):
                message = (rng.random(code.k) < density).astype(np.uint8)
                got = code.encode(message)
                assert got.dtype == np.uint8
                assert got.shape == (code.n,)
                assert np.array_equal(got, ref.ldpc_encode(code, message))

    @pytest.mark.parametrize("fill", [0, 1])
    def test_encode_constant_messages(self, code, fill):
        message = np.full(code.k, fill, dtype=np.uint8)
        got = code.encode(message)
        assert got.dtype == np.uint8
        assert got.shape == (code.n,)
        assert np.array_equal(got, ref.ldpc_encode(code, message))
        if fill == 0:
            assert not got.any()

    def test_encode_accepts_lists_and_bools(self, code):
        bits = [1, 0] * (code.k // 2) + [1] * (code.k % 2)
        expected = ref.ldpc_encode(code, np.asarray(bits, dtype=np.uint8))
        assert np.array_equal(code.encode(bits), expected)
        assert np.array_equal(code.encode(np.asarray(bits, dtype=bool)), expected)

    def test_encode_input_checks_kept(self, code):
        with pytest.raises(ConfigurationError):
            code.encode(np.zeros(code.k - 1, dtype=np.uint8))
        bad = np.zeros(code.k, dtype=np.uint8)
        bad[3] = 2
        with pytest.raises(ConfigurationError):
            code.encode(bad)

    def test_syndrome_codewords_and_corrupted_words(self, code):
        rng = np.random.default_rng(9)
        for _ in range(5):
            codeword = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
            for n_flips in (0, 1, 2, 7, code.n // 3):
                word = codeword.copy()
                word[rng.choice(code.n, size=n_flips, replace=False)] ^= 1
                got = code.syndrome(word)
                assert got.dtype == np.uint8
                assert got.shape == (code.h.shape[0],)
                assert np.array_equal(got, ref.ldpc_syndrome(code, word))
                assert code.is_codeword(word) == (not got.any())
        for fill in (0, 1):
            word = np.full(code.n, fill, dtype=np.uint8)
            assert np.array_equal(code.syndrome(word), ref.ldpc_syndrome(code, word))

    def test_syndrome_reduces_entries_mod_two(self, code):
        word = np.random.default_rng(4).integers(0, 4, code.n, dtype=np.uint8)
        assert np.array_equal(code.syndrome(word), ref.ldpc_syndrome(code, word))
