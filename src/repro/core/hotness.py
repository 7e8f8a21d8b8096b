"""Read-frequency tracking with multiple Bloom filters.

AccessEval needs to know how often a logical page is read.  The paper
points to Park et al. (FAST'11), which tracks hot data with ``V``
Bloom filters used round-robin over time windows: each access inserts
the key into the current filter, and a key's hotness is the number of
filters that contain it (recency-weighted frequency with bounded
memory).  Ageing is free — the oldest filter is cleared when the window
rotates.

The tracker runs on every flash read, so hashing is pure Python-int
arithmetic over a ``bytearray`` of bits: no numpy scalars on the hot
path.  Positions are bit-identical to the former numpy ``uint64``
formula — the explicit 64-bit mask reproduces its wrap-around.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Additive mixing constant of the multiplicative hash (2**64 / phi).
_GOLDEN = 0x9E3779B97F4A7C15

#: Emulates uint64 wrap-around on Python's unbounded ints.
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


class _BloomFilter:
    """A fixed-size Bloom filter over non-negative 64-bit integer keys."""

    def __init__(self, n_bits: int, seeds: tuple[int, ...]):
        self.n_bits = n_bits
        self.bits = bytearray(n_bits)
        self._seeds = seeds

    def _positions(self, key: int) -> list[int]:
        # Knuth-style multiplicative hashing with per-function odd seeds;
        # masked to 64 bits to emulate the intended modular arithmetic.
        mixed = key + _GOLDEN
        n_bits = self.n_bits
        return [(((mixed * seed) & _MASK64) >> 17) % n_bits for seed in self._seeds]

    def insert(self, key: int) -> None:
        bits = self.bits
        for position in self._positions(key):
            bits[position] = 1

    def contains(self, key: int) -> bool:
        # The per-read hot path: _positions inlined, stop at the first
        # clear bit.
        mixed = key + _GOLDEN
        bits, n_bits = self.bits, self.n_bits
        for seed in self._seeds:
            if not bits[(((mixed * seed) & _MASK64) >> 17) % n_bits]:
                return False
        return True

    def clear(self) -> None:
        self.bits[:] = bytes(self.n_bits)

    def fill_ratio(self) -> float:
        return self.bits.count(1) / self.n_bits


class MultiBloomHotness:
    """Recency-weighted read-frequency estimation (Park et al., FAST'11).

    Parameters
    ----------
    n_filters:
        Number of Bloom filters (the maximum raw hotness count).
    bits_per_filter:
        Size of each filter in bits.
    n_hashes:
        Hash functions per filter.
    window:
        Number of recorded accesses before the ring rotates and the
        oldest filter is cleared.
    freq_levels:
        Number of discrete read-frequency levels ``Lf`` exposed to the
        overhead rule (paper §5).
    """

    def __init__(
        self,
        n_filters: int = 4,
        bits_per_filter: int = 1 << 16,
        n_hashes: int = 2,
        window: int = 4096,
        freq_levels: int = 2,
        seed: int = 0x5EED,
    ):
        if n_filters < 2:
            raise ConfigurationError("need at least 2 filters for ageing")
        if bits_per_filter <= 0 or n_hashes <= 0 or window <= 0:
            raise ConfigurationError("filter sizes must be positive")
        if freq_levels < 2:
            raise ConfigurationError("need at least 2 frequency levels")
        rng = np.random.default_rng(seed)
        self.n_filters = n_filters
        self.freq_levels = freq_levels
        self.window = window
        self._filters = []
        for _ in range(n_filters):
            draws = rng.integers(1, 2**63 - 1, size=n_hashes, dtype=np.int64)
            seeds = tuple((int(draw) << 1) | 1 for draw in draws)
            self._filters.append(_BloomFilter(bits_per_filter, seeds))
        self._current = 0
        self._accesses_in_window = 0

    def record_read(self, key: int) -> None:
        """Record one read of ``key`` and rotate the window if due."""
        self._record(_checked_key(key))

    def record_and_level(self, key: int) -> int:
        """Record one read of ``key`` and return its frequency level.

        Equivalent to :meth:`record_read` followed by
        :meth:`frequency_level`, validating the key once.
        """
        key = _checked_key(key)
        self._record(key)
        return self._level(self._count(key))

    def hotness(self, key: int) -> int:
        """Raw hotness: how many filters have seen ``key`` (0..n_filters)."""
        return self._count(_checked_key(key))

    def frequency_level(self, key: int) -> int:
        """The key's read-frequency level ``Lf`` in ``[1, freq_levels]``.

        Counts map linearly onto the levels with the top level demanding
        presence in most windows: with 4 filters and 2 levels, a key
        reaches level 2 only when 3+ filters have seen it — one access
        in the current window must not mark a page hot.
        """
        return self._level(self.hotness(key))

    def fill_ratios(self) -> list[float]:
        """Diagnostic: fraction of set bits in each filter."""
        return [f.fill_ratio() for f in self._filters]

    def _record(self, key: int) -> None:
        self._filters[self._current].insert(key)
        self._accesses_in_window += 1
        if self._accesses_in_window >= self.window:
            self._rotate()

    def _count(self, key: int) -> int:
        return sum(1 for f in self._filters if f.contains(key))

    def _level(self, count: int) -> int:
        scaled = 1 + (count * self.freq_levels) // (self.n_filters + 1)
        return min(scaled, self.freq_levels)

    def _rotate(self) -> None:
        self._current = (self._current + 1) % self.n_filters
        self._filters[self._current].clear()
        self._accesses_in_window = 0


def _checked_key(key: int) -> int:
    """``key`` as a Python int, rejected unless it fits in 64 unsigned bits."""
    key = int(key)
    if not 0 <= key <= _MASK64:
        raise ConfigurationError(f"hotness key {key} outside [0, 2**64)")
    return key
