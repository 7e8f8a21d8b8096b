"""Retention charge-loss model (paper Eq. 3).

After programming, electron detrapping and stress-induced leakage make
Vth drift downward.  The drift after ``t`` hours at ``N`` P/E cycles is
Gaussian with

    mu_d      = Ks (x - x0) Kd N^0.4 ln(1 + t/t0)
    sigma_d^2 = Ks (x - x0) Km N^0.5 ln(1 + t/t0)

where ``x`` is the Vth right after programming and ``x0`` the erased
level.  The constants (paper §6.1, after ref 18) default to Ks = 0.333,
Kd = 4e-4, Km = 2e-6 and t0 = 1 hour.

Because mu_d and sigma_d depend on the *actual* programmed Vth ``x``,
applying retention to a distribution is not a plain convolution.
:meth:`RetentionModel.apply` performs the exact mixture integral over
the initial distribution on the voltage grid.

On top of the Gaussian bulk, the model supports an exponential tail
component: with probability ``tail_weight`` a cell suffers an extra
downward shift drawn from Exp(``tail_scale``).  Discrete trap-detrap
events are known to give retention-loss distributions sub-exponential
tails, and the paper's Table 4 requires them — across the NUNMA
configurations a 90 mV retention-margin increase only reduces BER by
~4-5x, far less than any Gaussian tail would predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.device.distributions import Distribution
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetentionModel:
    """Paper Eq. 3 with configurable constants.

    Parameters
    ----------
    ks, kd, km:
        Model constants.
    t0_hours:
        Reference time constant (1 hour in the paper).
    x0:
        Erased-level reference voltage used in the ``(x - x0)`` factor.
    """

    ks: float = 0.333
    kd: float = 4.0e-4
    km: float = 2.0e-6
    t0_hours: float = 1.0
    x0: float = 1.1
    tail_weight: float = 0.0
    tail_scale: float = 0.03

    def __post_init__(self) -> None:
        if min(self.ks, self.kd, self.km, self.t0_hours) <= 0:
            raise ConfigurationError("retention constants must be positive")
        if not 0.0 <= self.tail_weight <= 1.0:
            raise ConfigurationError(f"tail weight outside [0, 1]: {self.tail_weight}")
        if self.tail_scale <= 0:
            raise ConfigurationError(f"non-positive tail scale: {self.tail_scale}")

    # --- pointwise moments -----------------------------------------------------

    def mean_shift(self, x: float, pe_cycles: float, t_hours: float) -> float:
        """Mean downward Vth drift for a cell programmed at voltage ``x``."""
        self._check_args(pe_cycles, t_hours)
        headroom = max(x - self.x0, 0.0)
        return (
            self.ks
            * headroom
            * self.kd
            * pe_cycles**0.4
            * math.log(1.0 + t_hours / self.t0_hours)
        )

    def shift_variance(self, x: float, pe_cycles: float, t_hours: float) -> float:
        """Variance of the Vth drift for a cell programmed at ``x``."""
        self._check_args(pe_cycles, t_hours)
        headroom = max(x - self.x0, 0.0)
        return (
            self.ks
            * headroom
            * self.km
            * pe_cycles**0.5
            * math.log(1.0 + t_hours / self.t0_hours)
        )

    def shift_sigma(self, x: float, pe_cycles: float, t_hours: float) -> float:
        """Standard deviation of the Vth drift."""
        return math.sqrt(max(self.shift_variance(x, pe_cycles, t_hours), 0.0))

    def drift_moments(
        self, x: np.ndarray, pe_cycles: float, t_hours: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`mean_shift` and :meth:`shift_sigma` over an array of
        programmed voltages, with the same operations in the same order
        (so bit-equal to the scalar methods)."""
        self._check_args(pe_cycles, t_hours)
        headroom = np.maximum(x - self.x0, 0.0)
        log_term = math.log(1.0 + t_hours / self.t0_hours)
        mu = self.ks * headroom * self.kd * pe_cycles**0.4 * log_term
        variance = self.ks * headroom * self.km * pe_cycles**0.5 * log_term
        return mu, np.sqrt(np.maximum(variance, 0.0))

    def effective_tail_weight(self, pe_cycles: float, t_hours: float) -> float:
        """Probability of an extra exponential tail event.

        ``tail_weight`` is referenced to the paper's worst cell
        (6000 P/E, 1 month) and scales with the same ``N^0.4 ln(1+t/t0)``
        law as the drift mean, so the tail vanishes at t = 0.
        """
        if self.tail_weight == 0 or t_hours <= 0 or pe_cycles <= 0:
            return 0.0
        reference = 6000.0**0.4 * math.log(721.0)
        scale = (
            pe_cycles**0.4
            * math.log(1.0 + t_hours / self.t0_hours)
            / reference
        )
        return min(self.tail_weight * scale, 1.0)

    def tail_distribution(self, pe_cycles: float, t_hours: float, step: float) -> Distribution | None:
        """Distribution of the extra (downward) tail shift, or None.

        A mixture of a point mass at zero (no tail event) and a
        negative-exponential of scale ``tail_scale``.
        """
        weight = self.effective_tail_weight(pe_cycles, t_hours)
        if weight <= 0:
            return None
        n = max(2, int(math.ceil(8.0 * self.tail_scale / step)) + 1)
        axis = -step * np.arange(n - 1, -1, -1)
        pmf = np.exp(axis / self.tail_scale)
        exponential = Distribution(float(axis[0]), step, pmf)
        return Distribution.mixture(
            [(1.0 - weight, Distribution.delta(0.0, step)), (weight, exponential)]
        )

    # --- distribution transform ----------------------------------------------------

    def apply(
        self, initial: Distribution, pe_cycles: float, t_hours: float
    ) -> Distribution:
        """Distribution of Vth after retention, given the initial distribution.

        For every initial-voltage grid point ``x`` the drift is Gaussian
        ``N(mu_d(x), sigma_d(x)^2)``; the result is the mixture over the
        initial pmf, evaluated on the same grid (vectorized outer
        product over grid points).
        """
        self._check_args(pe_cycles, t_hours)
        if t_hours == 0 or pe_cycles == 0:
            return initial
        axis = initial.axis()
        step = initial.step
        mu, sigma = self.drift_moments(axis, pe_cycles, t_hours)
        max_drop = float((mu + 8.0 * sigma).max())
        pad = int(math.ceil(max_drop / step)) + 1
        out_axis = np.concatenate(
            [axis[0] - step * np.arange(pad, 0, -1), axis]
        )
        centers = axis - mu  # post-retention mean voltage per source bin
        # Column j of the kernel: density of landing at out_axis, for
        # source bin j, exp(-0.5 ((out - center) / sigma)^2) built in
        # one buffer.  Degenerate sigma (~0) collapses to a delta at the
        # nearest landing bin.
        kernel = np.subtract(out_axis[:, None], centers[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(kernel, sigma, out=kernel)
            np.square(kernel, out=kernel)
            np.multiply(-0.5, kernel, out=kernel)
            np.exp(kernel, out=kernel)
        degenerate = np.flatnonzero(sigma < step / 4)
        landing = np.rint((centers[degenerate] - out_axis[0]) / step)
        landing = np.clip(landing, 0, out_axis.size - 1).astype(np.intp)
        kernel[:, degenerate] = 0.0
        kernel[landing, degenerate] = 1.0
        col_sums = kernel.sum(axis=0)
        col_sums[col_sums == 0] = 1.0
        kernel /= col_sums[None, :]
        pmf = kernel @ initial.pmf
        result = Distribution(float(out_axis[0]), step, pmf)
        tail = self.tail_distribution(pe_cycles, t_hours, step)
        if tail is not None:
            result = result.convolve(tail)
        return result

    @staticmethod
    def _check_args(pe_cycles: float, t_hours: float) -> None:
        if pe_cycles < 0:
            raise ConfigurationError(f"negative P/E cycles: {pe_cycles}")
        if t_hours < 0:
            raise ConfigurationError(f"negative retention time: {t_hours}")
