"""Uncorrectable-BER estimation (paper Eq. 1).

For a rate-n/m code correcting up to ``k`` bit errors per codeword, the
uncorrectable bit error rate is

    uber(k) = (1 - sum_{i=0..k} C(m, i) p^i (1-p)^(m-i)) / n

i.e. the probability that more than ``k`` of the ``m`` codeword bits are
in error, normalized per information bit.  The sum is evaluated with the
regularized incomplete beta function (``scipy.stats.binom.sf``) so
targets as small as 1e-15 remain numerically meaningful.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Paper §6.1: targeted system UBER.
TARGET_UBER = 1e-15

#: Paper §6.1: a rate-8/9 LDPC code on each 4 KB data block.
LDPC_INFO_BITS = 4096 * 8
LDPC_CODEWORD_BITS = LDPC_INFO_BITS * 9 // 8


def uber(k: int, m: int, n: int, p: float) -> float:
    """Uncorrectable bit error rate of a ``k``-error-correcting code.

    Parameters
    ----------
    k:
        Number of correctable bit errors per codeword.
    m:
        Total codeword length in bits.
    n:
        Information length in bits.
    p:
        Raw per-bit error rate of the medium.
    """
    _check(k, m, n, p)
    if p == 0.0:
        return 0.0
    # Deferred: scipy.stats costs most of ``import repro``, and only the
    # UBER analysis needs it.
    from scipy import stats

    tail = float(stats.binom.sf(k, m, p))
    return tail / n


def required_correctable_bits(
    p: float,
    m: int = LDPC_CODEWORD_BITS,
    n: int = LDPC_INFO_BITS,
    target: float = TARGET_UBER,
) -> int:
    """Smallest ``k`` whose UBER meets ``target`` at raw BER ``p``.

    Binary-searches Eq. 1, which is monotone decreasing in ``k``.
    """
    _check(0, m, n, p)
    if target <= 0:
        raise ConfigurationError(f"non-positive UBER target: {target}")
    if uber(m, m, n, p) > target:
        raise ConfigurationError(
            f"even a perfect code cannot reach UBER {target} at p={p}"
        )
    low, high = 0, m
    while low < high:
        mid = (low + high) // 2
        if uber(mid, m, n, p) <= target:
            high = mid
        else:
            low = mid + 1
    return low


def code_margin(k: int, m: int, n: int, p: float, target: float = TARGET_UBER) -> float:
    """Ratio ``target / uber`` — how much reliability headroom remains.

    Values above 1 mean the code meets the target at raw BER ``p``.
    """
    value = uber(k, m, n, p)
    if value == 0.0:
        return float("inf")
    return target / value


def _check(k: int, m: int, n: int, p: float) -> None:
    if m <= 0 or n <= 0 or n > m:
        raise ConfigurationError(f"invalid code shape n={n}, m={m}")
    if k < 0:
        raise ConfigurationError(f"negative correctable bits: {k}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"BER outside [0, 1]: {p}")
