"""HLO (high-LDPC-overhead) data identification (paper §5).

The LDPC overhead a datum contributes is the product of how often it is
read and how expensive each read is.  The paper's estimation rule
divides read frequency into ``N`` levels (``Lf``) and the soft-sensing
requirement into ``M`` buckets (``Lsensing``), scores each datum as
``Lf x Lsensing`` and declares it HLO when the score reaches a
threshold.  The evaluation uses N = M = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hotness import MultiBloomHotness
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OverheadRule:
    """The ``Lf x Lsensing`` scoring rule.

    Parameters
    ----------
    freq_levels:
        ``N`` — number of read-frequency levels.
    sensing_buckets:
        ``M`` — number of soft-sensing buckets.
    max_extra_levels:
        Largest number of extra sensing levels the LDPC channel can
        demand (paper Table 5 tops out at 6; the ladder allows 7).
    threshold:
        Minimum ``Lf x Lsensing`` score that marks a datum HLO.
        Defaults to ``N x M``: only data that is both in the hottest
        read class and in the highest sensing class qualifies.
    """

    freq_levels: int = 2
    sensing_buckets: int = 2
    max_extra_levels: int = 7
    threshold: int | None = None

    def __post_init__(self) -> None:
        if self.freq_levels < 1 or self.sensing_buckets < 1:
            raise ConfigurationError("levels and buckets must be >= 1")
        if self.max_extra_levels < 1:
            raise ConfigurationError("max_extra_levels must be >= 1")
        effective = self.threshold
        if effective is None:
            object.__setattr__(self, "threshold", self.freq_levels * self.sensing_buckets)
        elif effective < 1 or effective > self.freq_levels * self.sensing_buckets:
            raise ConfigurationError(
                f"threshold {effective} outside [1, {self.freq_levels * self.sensing_buckets}]"
            )

    def sensing_bucket(self, extra_levels: int) -> int:
        """Bucket ``Lsensing`` in ``[1, sensing_buckets]`` for a read that
        needed ``extra_levels`` extra soft-sensing levels.

        Zero extra levels is always bucket 1 (hard-decision-like reads
        carry no LDPC overhead); positive counts are spread linearly
        across the remaining buckets.
        """
        if extra_levels < 0:
            raise ConfigurationError(f"negative extra sensing levels: {extra_levels}")
        if extra_levels == 0 or self.sensing_buckets == 1:
            return 1
        clamped = min(extra_levels, self.max_extra_levels)
        bucket = 1 + -(-clamped * (self.sensing_buckets - 1) // self.max_extra_levels)
        return min(bucket, self.sensing_buckets)

    def overhead(self, freq_level: int, sensing_bucket: int) -> int:
        """The ``Lf x Lsensing`` score."""
        if not 1 <= freq_level <= self.freq_levels:
            raise ConfigurationError(f"freq level {freq_level} outside [1, {self.freq_levels}]")
        if not 1 <= sensing_bucket <= self.sensing_buckets:
            raise ConfigurationError(
                f"sensing bucket {sensing_bucket} outside [1, {self.sensing_buckets}]"
            )
        return freq_level * sensing_bucket

    def is_hlo(self, freq_level: int, sensing_bucket: int) -> bool:
        """True when the score reaches the HLO threshold."""
        return self.overhead(freq_level, sensing_bucket) >= self.threshold


class HloIdentifier:
    """Combines read-frequency tracking with the overhead rule.

    Parameters
    ----------
    rule:
        The scoring rule (defaults to the paper's N = M = 2).
    hotness:
        Read-frequency tracker; a default multi-Bloom tracker matching
        the rule's ``freq_levels`` is created when omitted.
    """

    def __init__(
        self,
        rule: OverheadRule | None = None,
        hotness: MultiBloomHotness | None = None,
    ):
        self.rule = rule or OverheadRule()
        self.hotness = hotness or MultiBloomHotness(freq_levels=self.rule.freq_levels)
        if self.hotness.freq_levels != self.rule.freq_levels:
            raise ConfigurationError(
                "hotness tracker and overhead rule disagree on freq_levels"
            )
        self.reads_observed = 0
        self.hlo_hits = 0
        # (freq level, extra levels) -> HLO verdict; the rule is frozen,
        # so each pair is scored (and validated) once.
        self._verdicts: dict[tuple[int, int], bool] = {}

    def observe_read(self, lpn: int, extra_levels: int) -> bool:
        """Record a read of logical page ``lpn`` and classify it.

        Returns True when the page's current score marks it HLO.
        """
        freq_level = self.hotness.record_and_level(lpn)
        pair = (freq_level, extra_levels)
        is_hlo = self._verdicts.get(pair)
        if is_hlo is None:
            rule = self.rule
            is_hlo = rule.is_hlo(freq_level, rule.sensing_bucket(extra_levels))
            self._verdicts[pair] = is_hlo
        self.reads_observed += 1
        if is_hlo:
            self.hlo_hits += 1
        return is_hlo

    def hlo_fraction(self) -> float:
        """Fraction of observed reads classified as HLO."""
        if self.reads_observed == 0:
            return 0.0
        return self.hlo_hits / self.reads_observed
