"""Stochastic read retry: hard-decision first, escalate on failure.

Real controllers do not know a decode will succeed before running it.
A read first senses at the precision the system provisioned (its
"hard decision" for that page); if the LDPC decode fails, the
controller escalates — one more reference voltage, re-transfer,
re-decode — until it succeeds or the sensing ladder is exhausted
("Enhanced Precision Through Multiple Reads for LDPC Decoding in Flash
Memories", Wang et al.).  The failed rounds sit on the critical path,
which is why retries stretch the latency *tail* far more than the mean.

The model here turns a page's raw BER into a per-round failure
probability: at zero sensing margin the first round fails with
``min(cap, ber_scale * raw_ber)``, and every level of margin —
provisioned above required, or added by an escalation — multiplies the
failure probability by ``margin_factor``.  With the defaults, a page at
the paper's 4e-3 sensing trigger fails its first round 10 % of the
time, and a month-old 6000-P/E page (BER 1.6e-2) 40 % of the time.
Sampling is seeded, so runs are reproducible.

Ladder exhaustion is a real terminal outcome, not a guaranteed success:
a read that burns through every escalation round ends at the ladder's
maximum precision with a *residual* failure probability, which
:class:`RetryOutcome` exposes (``exhausted`` +
``final_failure_probability``).  Without fault injection the engine
keeps the legacy optimistic reading — the top round is treated as
successful — but with an injector attached that residual probability
feeds the uncorrectable-read branch
(:meth:`repro.faults.FaultInjector.read_uncorrectable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.baselines.systems import ReadServiceBreakdown
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ReadRetryConfig:
    """Knobs mapping device BER to retry behaviour.

    Parameters
    ----------
    ber_scale:
        Round-failure probability per unit of raw BER at zero sensing
        margin (before capping).
    failure_cap:
        Upper bound on any single round's failure probability.
    margin_factor:
        Multiplier on the failure probability per extra sensing level
        of margin; must be in (0, 1) so escalation converges.
    seed:
        Seed of the sampling RNG.
    """

    ber_scale: float = 25.0
    failure_cap: float = 0.5
    margin_factor: float = 0.5
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.ber_scale < 0:
            raise ConfigurationError("ber_scale must be non-negative")
        if not 0.0 <= self.failure_cap <= 1.0:
            raise ConfigurationError("failure_cap outside [0, 1]")
        if not 0.0 < self.margin_factor < 1.0:
            raise ConfigurationError("margin_factor outside (0, 1)")


class RetryOutcome(NamedTuple):
    """One flash read's sampled trip through the sensing ladder.

    Attributes
    ----------
    extra_rounds:
        Escalations beyond the first sensing round.
    extra_us:
        Service time the escalations added.
    exhausted:
        True when the read ended at the ladder's maximum precision —
        either every escalation round's decode failed, or the first
        round was already provisioned at the top level.  Only an
        exhausted read can be uncorrectable.
    final_failure_probability:
        Failure probability of the maximum-precision decode the read
        ended on (0.0 when not exhausted, or on buffer hits).  The
        legacy behaviour treats this round as successful; fault
        injection samples it.
    """

    extra_rounds: int
    extra_us: float
    exhausted: bool
    final_failure_probability: float


class ReadRetryModel:
    """Samples the retry rounds of one flash read from its breakdown."""

    def __init__(self, config: ReadRetryConfig | None = None):
        self.config = config or ReadRetryConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def failure_probability(self, raw_ber: float, margin_levels: int) -> float:
        """Probability one sensing round fails to decode.

        ``margin_levels`` is how many extra levels the round sensed
        beyond what the tracking policy says the page requires.
        """
        if raw_ber < 0:
            raise ConfigurationError(f"negative BER: {raw_ber}")
        if margin_levels < 0:
            margin_levels = 0
        base = min(self.config.failure_cap, self.config.ber_scale * raw_ber)
        return base * self.config.margin_factor**margin_levels

    def sample(self, breakdown: ReadServiceBreakdown) -> tuple[int, float]:
        """Sample one read's retry sequence (legacy scalar view).

        Returns ``(extra_rounds, extra_us)``.  Equivalent to
        :meth:`sample_outcome` with the terminal fields dropped — the
        legacy optimistic semantics where an exhausted ladder is read
        as a success at maximum precision.
        """
        outcome = self.sample_outcome(breakdown)
        return outcome.extra_rounds, outcome.extra_us

    def sample_outcome(self, breakdown: ReadServiceBreakdown) -> RetryOutcome:
        """Sample one read's trip through the sensing ladder.

        Buffer hits never retry.  A read whose first round is already
        at the ladder's top (empty retry tail) consumes no RNG draw and
        is reported exhausted with its first-round failure probability;
        a read that fails every escalation ends exhausted with the
        residual failure probability of the maximum-precision round.
        The draw sequence is identical to the pre-outcome ``sample``
        implementation, so equally-seeded runs reproduce bit-for-bit.
        """
        if breakdown.buffer_hit:
            return RetryOutcome(0, 0.0, False, 0.0)
        probability = self.failure_probability(
            breakdown.raw_ber,
            breakdown.provisioned_levels - breakdown.required_levels,
        )
        retry_rounds_us = breakdown.retry_rounds_us
        if not retry_rounds_us:
            return RetryOutcome(0, 0.0, True, probability)
        draw = self._rng.random
        margin_factor = self.config.margin_factor
        rounds = 0
        extra_us = 0.0
        for increment_us in retry_rounds_us:
            if draw() >= probability:
                return RetryOutcome(rounds, extra_us, False, 0.0)
            rounds += 1
            extra_us += increment_us
            probability *= margin_factor
        return RetryOutcome(rounds, extra_us, True, probability)
