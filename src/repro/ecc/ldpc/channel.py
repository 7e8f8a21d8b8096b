"""The NAND soft-sensing read channel.

Soft-decision LDPC needs LLRs, which NAND provides by re-sensing a page
with extra reference voltages between the nominal ones (paper §2.2).
This module models that process with the standard equivalent-channel
abstraction: each stored bit behaves like a binary-input AWGN channel
whose noise level reproduces the cell's raw BER, and ``extra_levels``
additional sensing thresholds quantize the analog readback into
``extra_levels + 2`` reliability regions, each mapped to the exact LLR
of its probability mass.

With zero extra levels the channel degenerates to hard decisions (one
threshold, two regions) — the hard-decision LDPC mode.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

#: Cap on |LLR| to keep min-sum arithmetic well-behaved.
MAX_LLR = 30.0


class NandReadChannel:
    """Equivalent AWGN channel for a NAND page at a given raw BER.

    Parameters
    ----------
    raw_ber:
        Per-bit error probability of the medium (from the BER engine).
    extra_levels:
        Number of extra soft-sensing levels (0 = hard decision).
    sensing_span:
        Analog span (in noise standard deviations) across which the
        extra thresholds are spread around the hard threshold.
    """

    def __init__(self, raw_ber: float, extra_levels: int = 0, sensing_span: float = 1.5):
        if not 0.0 < raw_ber < 0.5:
            raise ConfigurationError(f"raw BER {raw_ber} outside (0, 0.5)")
        if extra_levels < 0:
            raise ConfigurationError(f"negative extra levels: {extra_levels}")
        if sensing_span <= 0:
            raise ConfigurationError(f"non-positive sensing span: {sensing_span}")
        self.raw_ber = raw_ber
        self.extra_levels = extra_levels
        # Deferred, like the one in _gaussian_mass: only the bit-accurate
        # read path loads scipy, never ``import repro``.
        from scipy import special

        # BPSK signalling at +-1; sigma chosen so Q(1/sigma) = raw_ber.
        # -ndtri(q) is what scipy.stats.norm.isf(q) computes, bit for bit.
        self.sigma = 1.0 / -special.ndtri(raw_ber)
        self.thresholds = self._build_thresholds(sensing_span)
        self.region_llrs = self._build_region_llrs()

    def _build_thresholds(self, span: float) -> np.ndarray:
        """Sensing thresholds: the hard one at 0 plus the extra ones,
        spread symmetrically within ``span`` noise sigmas."""
        if self.extra_levels == 0:
            return np.array([0.0])
        half_width = span * self.sigma
        return np.linspace(-half_width, half_width, self.extra_levels + 1)

    def _build_region_llrs(self) -> np.ndarray:
        """Exact LLR of each quantization region.

        Region ``r`` spans ``(thresholds[r-1], thresholds[r]]``; its LLR
        is ``log P(region | bit=0) / P(region | bit=1)`` with bit 0
        transmitted as +1.
        """
        edges = np.concatenate([[-np.inf], self.thresholds, [np.inf]])
        llrs = np.empty(edges.size - 1)
        for region in range(llrs.size):
            low, high = edges[region], edges[region + 1]
            p_zero = _gaussian_mass(low, high, +1.0, self.sigma)
            p_one = _gaussian_mass(low, high, -1.0, self.sigma)
            if p_zero <= 0 and p_one <= 0:
                llrs[region] = 0.0
                continue
            ratio = max(p_zero, 1e-300) / max(p_one, 1e-300)
            llrs[region] = float(np.clip(math.log(ratio), -MAX_LLR, MAX_LLR))
        # Analog position grows with voltage while LLR for bit 0 (sent
        # as +1) grows too; region order is ascending voltage.
        return llrs

    # --- simulation -------------------------------------------------------------------

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Analog readback values for a bit vector."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ConfigurationError("bits must be 1-D")
        symbols = 1.0 - 2.0 * bits  # bit 0 -> +1, bit 1 -> -1
        return symbols + self.sigma * rng.standard_normal(bits.size)

    def quantize(self, analog: np.ndarray) -> np.ndarray:
        """Region index of each analog sample (0 .. extra_levels + 1)."""
        return np.searchsorted(self.thresholds, analog, side="left")

    def llrs_for(self, analog: np.ndarray) -> np.ndarray:
        """Quantized LLRs for analog readback values."""
        return self.region_llrs[self.quantize(analog)]

    def read(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One-shot: transmit a bit vector and return its quantized LLRs."""
        return self.llrs_for(self.transmit(bits, rng))

    def hard_decisions(self, analog: np.ndarray) -> np.ndarray:
        """Hard bit decisions from the analog readback (sign detector)."""
        return (analog < 0).astype(np.uint8)


def _gaussian_mass(low: float, high: float, mean: float, sigma: float) -> float:
    """Probability mass of N(mean, sigma^2) within (low, high].

    ``ndtr((x - mean) / sigma)`` is what ``scipy.stats.norm.cdf(x, mean,
    sigma)`` computes, bit for bit.
    """
    from scipy import special

    return float(special.ndtr((high - mean) / sigma) - special.ndtr((low - mean) / sigma))
