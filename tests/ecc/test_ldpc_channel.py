"""Tests for the NAND soft-sensing channel."""

import numpy as np
import pytest
from scipy import stats

from repro.ecc.ldpc import channel as channel_module
from repro.ecc.ldpc.channel import MAX_LLR, NandReadChannel
from repro.errors import ConfigurationError


class TestConstruction:
    def test_sigma_matches_raw_ber(self):
        for ber in (1e-3, 1e-2, 0.1):
            channel = NandReadChannel(ber)
            assert stats.norm.sf(1.0 / channel.sigma) == pytest.approx(ber, rel=1e-6)

    def test_hard_channel_single_threshold(self):
        channel = NandReadChannel(0.01, extra_levels=0)
        assert channel.thresholds.tolist() == [0.0]
        assert channel.region_llrs.size == 2

    def test_extra_levels_add_regions(self):
        channel = NandReadChannel(0.01, extra_levels=4)
        assert channel.thresholds.size == 5
        assert channel.region_llrs.size == 6

    def test_llrs_monotone_in_region(self):
        channel = NandReadChannel(0.02, extra_levels=5)
        llrs = channel.region_llrs
        assert np.all(np.diff(llrs) <= 0) or np.all(np.diff(llrs) >= 0)

    def test_llrs_symmetric(self):
        channel = NandReadChannel(0.02, extra_levels=3)
        np.testing.assert_allclose(
            channel.region_llrs, -channel.region_llrs[::-1], atol=1e-9
        )

    def test_llrs_bounded(self):
        channel = NandReadChannel(1e-4, extra_levels=6)
        assert np.all(np.abs(channel.region_llrs) <= MAX_LLR)

    def test_hard_llr_matches_ber(self):
        ber = 0.01
        channel = NandReadChannel(ber, extra_levels=0)
        expected = np.log((1 - ber) / ber)
        assert abs(channel.region_llrs).max() == pytest.approx(expected, rel=1e-3)

    def test_rejects_bad_ber(self):
        with pytest.raises(ConfigurationError):
            NandReadChannel(0.0)
        with pytest.raises(ConfigurationError):
            NandReadChannel(0.6)

    def test_rejects_negative_levels(self):
        with pytest.raises(ConfigurationError):
            NandReadChannel(0.01, extra_levels=-1)


class TestScipyStatsParity:
    """The channel calls ``scipy.special`` directly; ``scipy.stats`` (the
    distribution it used to call) is the oracle, compared by ``float.hex``."""

    N_POINTS = 20_000

    def test_sigma_bit_identical_to_norm_isf(self):
        rng = np.random.default_rng(20150607)
        bers = np.concatenate(
            [
                10.0 ** rng.uniform(-12.0, np.log10(0.5), self.N_POINTS),
                [1e-300, 1e-15, 1e-3, 0.25, np.nextafter(0.5, 0.0)],
            ]
        )
        expected = 1.0 / stats.norm.isf(bers)
        mismatches = [
            (float(ber).hex(), float(want).hex(), float(got).hex())
            for ber, want in zip(bers, expected)
            if float(got := NandReadChannel(float(ber)).sigma).hex() != float(want).hex()
        ]
        assert mismatches == []

    def test_gaussian_mass_bit_identical_to_norm_cdf(self):
        rng = np.random.default_rng(20150608)
        n = self.N_POINTS
        edges = np.sort(rng.normal(0.0, 2.0, (n, 2)), axis=1)
        edges[: n // 8, 0] = -np.inf
        edges[n // 8 : n // 4, 1] = np.inf
        means = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        means[n // 2 :] = rng.normal(0.0, 1.5, n - n // 2)
        sigmas = 10.0 ** rng.uniform(-2.0, 1.0, n)
        low, high = edges[:, 0], edges[:, 1]
        expected = stats.norm.cdf(high, means, sigmas) - stats.norm.cdf(low, means, sigmas)
        mismatches = [
            (args, float(want).hex())
            for *args, want in zip(low, high, means, sigmas, expected)
            if channel_module._gaussian_mass(*map(float, args)).hex() != float(want).hex()
        ]
        assert mismatches == []


class TestTransmission:
    def test_error_rate_matches_raw_ber(self, rng):
        ber = 0.05
        channel = NandReadChannel(ber)
        bits = rng.integers(0, 2, 100_000).astype(np.uint8)
        analog = channel.transmit(bits, rng)
        errors = (channel.hard_decisions(analog) != bits).mean()
        assert errors == pytest.approx(ber, rel=0.1)

    def test_quantize_range(self, rng):
        channel = NandReadChannel(0.02, extra_levels=3)
        regions = channel.quantize(channel.transmit(rng.integers(0, 2, 1000), rng))
        assert regions.min() >= 0
        assert regions.max() <= 4

    def test_llr_sign_tracks_bits_mostly(self, rng):
        channel = NandReadChannel(0.01, extra_levels=4)
        bits = rng.integers(0, 2, 10_000).astype(np.uint8)
        llrs = channel.read(bits, rng)
        hard_from_llr = (llrs < 0).astype(np.uint8)
        assert (hard_from_llr == bits).mean() > 0.97

    def test_more_levels_more_information(self, rng):
        """Finer quantization preserves more mutual information: the mean
        |LLR| on correct decisions should rise with level count."""
        bits = np.zeros(20_000, dtype=np.uint8)
        coarse = NandReadChannel(0.05, extra_levels=0)
        fine = NandReadChannel(0.05, extra_levels=6)
        analog = coarse.transmit(bits, np.random.default_rng(3))
        # same analog samples, different quantizers
        llr_coarse = coarse.llrs_for(analog)
        llr_fine = fine.llrs_for(analog)
        # fine quantizer distinguishes strong from weak evidence
        assert np.unique(llr_fine).size > np.unique(llr_coarse).size
