"""The BER engine: analytic numeric integration plus Monte-Carlo check.

For a given :class:`~repro.device.voltages.VoltagePlan` and
:class:`~repro.device.coding.CellCoding`, the analyzer builds the final
Vth distribution of every level — programmed distribution, convolved
with the cell-to-cell interference shift (paper Eq. 2) and passed
through the retention transform (paper Eq. 3) — and integrates the mass
landing in foreign read regions, weighted by how many bits the coding
loses per misread.

Two evaluation modes mirror the paper's experiments:

* ``c2c_ber`` (Fig. 5): interference only, no retention.
* ``retention_ber`` (Table 4): retention only (margins as programmed).

``bit_error_rate`` combines both for the system-level simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.c2c import C2cModel, DEFAULT_PROFILES, NeighborProfile
from repro.device.coding import CellCoding, GrayMlcCoding
from repro.device.distributions import Distribution
from repro.device.retention import RetentionModel
from repro.device.voltages import VoltagePlan
from repro.device.wear import WearModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BerBreakdown:
    """Result of a BER evaluation.

    Attributes
    ----------
    total:
        Per-bit error rate.
    raw_level_error_rate:
        Probability that a random cell is sensed in a foreign level
        region (before bit-mapping weights).
    per_level:
        Fraction of the total BER contributed by each programmed level
        (sums to 1 when ``total`` > 0).
    """

    total: float
    raw_level_error_rate: float
    per_level: dict[int, float] = field(default_factory=dict)

    def dominant_level(self) -> int:
        """The Vth level contributing the most errors."""
        if not self.per_level:
            raise ConfigurationError("empty BER breakdown")
        return max(self.per_level, key=lambda lv: self.per_level[lv])


class BerAnalyzer:
    """Analytic BER evaluation for one voltage plan and coding.

    Parameters
    ----------
    plan:
        Voltage plan (levels, verify/read voltages, program noise).
    coding:
        Bit mapping; defaults to Gray MLC when the plan has four levels.
    c2c:
        Cell-to-cell interference model (shared coupling ratios).
    retention:
        Retention model (paper Eq. 3 constants).
    profiles:
        Victim neighbour profiles to average over (defaults to the
        even/odd pair from the paper's bitline structure).
    """

    def __init__(
        self,
        plan: VoltagePlan,
        coding: CellCoding | None = None,
        c2c: C2cModel | None = None,
        retention: RetentionModel | None = None,
        wear: WearModel | None = None,
        profiles: tuple[NeighborProfile, ...] = DEFAULT_PROFILES,
    ):
        if coding is None:
            if plan.n_levels != 4:
                raise ConfigurationError(
                    f"plan {plan.name!r} has {plan.n_levels} levels; "
                    "a coding must be supplied explicitly"
                )
            coding = GrayMlcCoding()
        if coding.n_levels != plan.n_levels:
            raise ConfigurationError(
                f"coding expects {coding.n_levels} levels but plan "
                f"{plan.name!r} has {plan.n_levels}"
            )
        if not profiles:
            raise ConfigurationError("at least one neighbor profile is required")
        self.plan = plan
        self.coding = coding
        self.c2c = c2c or C2cModel(level_usage=coding.level_usage())
        self.retention = retention or RetentionModel(x0=plan.erased_mean)
        self.wear = wear or WearModel()
        self.profiles = profiles
        self._weights = self._build_weight_matrix()

    # --- distributions -----------------------------------------------------------

    def final_distribution(
        self,
        level: int,
        profile: NeighborProfile,
        pe_cycles: float = 0.0,
        t_hours: float = 0.0,
        include_c2c: bool = True,
        include_retention: bool = True,
    ) -> Distribution:
        """Vth distribution of a level after the selected noise sources."""
        dist = self.plan.programmed_distribution(level)
        if level > 0 and pe_cycles > 0:
            dist = self.wear.apply(dist, pe_cycles)
        if include_c2c:
            shift = self.c2c.shift_distribution(self.plan, profile)
            dist = dist.convolve(shift)
        if include_retention and t_hours > 0 and pe_cycles > 0 and level > 0:
            dist = self.retention.apply(dist, pe_cycles, t_hours)
        return dist

    def level_confusion(
        self,
        level: int,
        profile: NeighborProfile,
        pe_cycles: float = 0.0,
        t_hours: float = 0.0,
        include_c2c: bool = True,
        include_retention: bool = True,
    ) -> np.ndarray:
        """``P(read m | programmed level)`` for every level ``m``."""
        dist = self.final_distribution(
            level,
            profile,
            pe_cycles=pe_cycles,
            t_hours=t_hours,
            include_c2c=include_c2c,
            include_retention=include_retention,
        )
        probs = np.empty(self.plan.n_levels)
        for m in range(self.plan.n_levels):
            low, high = self.plan.region(m)
            probs[m] = dist.mass_between(low, high)
        # Numerical guard: renormalize tiny truncation losses.
        total = probs.sum()
        if total > 0:
            probs /= total
        return probs

    # --- BER ------------------------------------------------------------------------

    def bit_error_rate(
        self,
        pe_cycles: float = 0.0,
        t_hours: float = 0.0,
        include_c2c: bool = True,
        include_retention: bool = True,
    ) -> BerBreakdown:
        """Per-bit error rate under the selected noise sources.

        Without C2C the neighbour profile does not enter a level's
        distribution, so each level is evaluated once and its error
        terms are reused for every profile.
        """
        usage = np.asarray(self.coding.level_usage())
        levels = [lv for lv in range(self.plan.n_levels) if usage[lv] > 0]

        def level_terms(profile: NeighborProfile) -> list[tuple[int, float, float]]:
            terms = []
            for level in levels:
                misread = self.level_confusion(
                    level,
                    profile,
                    pe_cycles=pe_cycles,
                    t_hours=t_hours,
                    include_c2c=include_c2c,
                    include_retention=include_retention,
                )
                misread[level] = 0.0
                raw = float(usage[level] * misread.sum())
                weighted = float(usage[level] * (misread @ self._weights[level]))
                terms.append((level, raw, weighted))
            return terms

        if include_c2c:
            profile_terms = [level_terms(profile) for profile in self.profiles]
        else:
            profile_terms = [level_terms(self.profiles[0])] * len(self.profiles)
        total_weighted = 0.0
        total_raw = 0.0
        per_level: dict[int, float] = {lv: 0.0 for lv in range(self.plan.n_levels)}
        for terms in profile_terms:
            for level, raw, weighted in terms:
                total_raw += raw
                total_weighted += weighted
                per_level[level] += weighted
        n_profiles = len(self.profiles)
        total_weighted /= n_profiles
        total_raw /= n_profiles
        scale = self.coding.error_rate_scale
        total = total_weighted * scale
        if total > 0:
            shares = {
                lv: (contrib / n_profiles) * scale / total
                for lv, contrib in per_level.items()
            }
        else:
            shares = {lv: 0.0 for lv in per_level}
        return BerBreakdown(total=total, raw_level_error_rate=total_raw, per_level=shares)

    def c2c_ber(self, pe_cycles: float = 0.0) -> BerBreakdown:
        """BER from cell-to-cell interference alone (paper Fig. 5).

        ``pe_cycles`` adds the cycling-induced broadening without any
        retention drift.
        """
        return self.bit_error_rate(
            pe_cycles=pe_cycles, include_c2c=True, include_retention=False
        )

    def retention_ber(self, pe_cycles: float, t_hours: float) -> BerBreakdown:
        """BER from retention alone (paper Table 4)."""
        return self.bit_error_rate(
            pe_cycles=pe_cycles,
            t_hours=t_hours,
            include_c2c=False,
            include_retention=True,
        )

    # --- Monte Carlo cross-check -----------------------------------------------------

    def monte_carlo_ber(
        self,
        n_cells: int,
        rng: np.random.Generator,
        pe_cycles: float = 0.0,
        t_hours: float = 0.0,
        include_c2c: bool = True,
        include_retention: bool = True,
    ) -> float:
        """Sampled per-bit BER; validates the analytic integration.

        Cells are assigned random levels per the coding's level usage,
        programmed with ISPP + program noise, disturbed by sampled
        interference and retention drift, then sensed; bit errors are
        accumulated with the coding's misread weights.
        """
        if n_cells <= 0:
            raise ConfigurationError(f"non-positive sample size: {n_cells}")
        usage = np.asarray(self.coding.level_usage())
        levels = rng.choice(self.plan.n_levels, size=n_cells, p=usage)
        voltages = np.empty(n_cells)
        for level in range(self.plan.n_levels):
            mask = levels == level
            count = int(mask.sum())
            if count == 0:
                continue
            voltages[mask] = self.plan.programmed_distribution(level).sample(rng, count)
        sigma_w = self.wear.sigma(pe_cycles)
        if sigma_w > 0:
            programmed = levels > 0
            voltages[programmed] += sigma_w * rng.standard_normal(int(programmed.sum()))
        if include_c2c:
            per_profile = n_cells // len(self.profiles)
            start = 0
            for i, profile in enumerate(self.profiles):
                count = per_profile if i < len(self.profiles) - 1 else n_cells - start
                shift = self.c2c.shift_distribution(self.plan, profile)
                voltages[start : start + count] += shift.sample(rng, count)
                start += count
        if include_retention and t_hours > 0 and pe_cycles > 0:
            programmed = levels > 0
            x = voltages[programmed]
            mu, sigma = self.retention.drift_moments(x, pe_cycles, t_hours)
            drift = mu + sigma * rng.standard_normal(x.size)
            tail_weight = self.retention.effective_tail_weight(pe_cycles, t_hours)
            if tail_weight > 0:
                tail_hit = rng.random(x.size) < tail_weight
                drift = drift + tail_hit * rng.exponential(
                    self.retention.tail_scale, size=x.size
                )
            voltages[programmed] = x - drift
        refs = np.asarray(self.plan.read_references)
        read_levels = np.searchsorted(refs, voltages, side="right")
        errors = 0.0
        for true_level in range(self.plan.n_levels):
            for read_level in range(self.plan.n_levels):
                if true_level == read_level:
                    continue
                count = int(((levels == true_level) & (read_levels == read_level)).sum())
                if count:
                    errors += count * self._weights[true_level][read_level]
        return errors * self.coding.error_rate_scale / n_cells

    # --- internals ------------------------------------------------------------------

    def _build_weight_matrix(self) -> np.ndarray:
        n = self.plan.n_levels
        weights = np.zeros((n, n))
        for true_level in range(n):
            for read_level in range(n):
                weights[true_level, read_level] = self.coding.bit_error_weight(
                    true_level, read_level
                )
        return weights
