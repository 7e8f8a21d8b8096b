"""Synthetic block-trace generation.

Each workload is characterized by a handful of published statistics —
read fraction, access skew, footprint, request sizes, sequential-run
tendency and arrival rate — and generated reproducibly from a seed.

Skew uses a bounded Zipf over the footprint: page popularity
``p(i) ~ 1 / rank(i)^s`` with a random rank permutation, so the hot set
is scattered across the address space like real file systems scatter
hot files.  Reads and writes can use different skews (search-engine
traces read a tiny hot set but log writes sequentially, for example).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.schema import TraceRecord


def check_seed(seed):
    """``seed`` itself; numpy seeds only from non-negative integers, so a
    negative one raises :class:`ConfigurationError` instead.  Seed
    sequences and generators pass through."""
    if isinstance(seed, Integral) and seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class SyntheticWorkload:
    """Parameters of a synthetic trace.

    Parameters
    ----------
    name:
        Workload label.
    footprint_pages:
        Number of distinct logical pages the workload can touch.
    read_fraction:
        Fraction of requests that are reads.
    read_zipf_s, write_zipf_s:
        Zipf exponents for read and write target popularity
        (0 = uniform; ~1 = heavily skewed).
    mean_request_pages:
        Mean request size (geometric distribution, minimum 1 page).
    sequential_fraction:
        Probability that a request continues the previous one's address
        run instead of sampling a fresh target.
    mean_interarrival_us:
        Mean request inter-arrival time (exponential).
    """

    name: str
    footprint_pages: int
    read_fraction: float
    read_zipf_s: float = 0.9
    write_zipf_s: float = 0.6
    mean_request_pages: float = 2.0
    sequential_fraction: float = 0.1
    mean_interarrival_us: float = 500.0

    def __post_init__(self) -> None:
        if self.footprint_pages <= 0:
            raise ConfigurationError("footprint must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read fraction outside [0, 1]")
        if self.read_zipf_s < 0 or self.write_zipf_s < 0:
            raise ConfigurationError("Zipf exponents must be non-negative")
        if self.mean_request_pages < 1.0:
            raise ConfigurationError("mean request size below one page")
        if not 0.0 <= self.sequential_fraction < 1.0:
            raise ConfigurationError("sequential fraction outside [0, 1)")
        if self.mean_interarrival_us <= 0:
            raise ConfigurationError("inter-arrival time must be positive")

    # --- generation -----------------------------------------------------------------

    def generate(self, n_requests: int, seed: int = 0) -> list[TraceRecord]:
        """Generate a seeded trace of ``n_requests`` records."""
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        rng = np.random.default_rng(check_seed(seed))
        read_pop = _zipf_sampler(self.footprint_pages, self.read_zipf_s, rng)
        write_pop = _zipf_sampler(self.footprint_pages, self.write_zipf_s, rng)

        timestamps = np.cumsum(
            rng.exponential(self.mean_interarrival_us, size=n_requests)
        )
        is_write = rng.random(n_requests) >= self.read_fraction
        sizes = 1 + rng.geometric(
            min(1.0, 1.0 / self.mean_request_pages), size=n_requests
        ) - 1
        sizes = np.clip(sizes, 1, max(1, self.footprint_pages // 8))
        sequential = rng.random(n_requests) < self.sequential_fraction

        records: list[TraceRecord] = []
        previous_end = 0
        for i in range(n_requests):
            size = int(sizes[i])
            if sequential[i] and previous_end + size <= self.footprint_pages:
                lpn = previous_end
            else:
                sampler = write_pop if is_write[i] else read_pop
                lpn = int(sampler(rng))
                lpn = min(lpn, self.footprint_pages - size)
            records.append(
                TraceRecord(
                    timestamp_us=float(timestamps[i]),
                    lpn=lpn,
                    n_pages=size,
                    is_write=bool(is_write[i]),
                )
            )
            previous_end = lpn + size
        return records

    def expected_read_pages(self, n_requests: int) -> float:
        """Rough expected number of read pages in a generated trace."""
        return n_requests * self.read_fraction * self.mean_request_pages


def _zipf_sampler(n: int, s: float, rng: np.random.Generator):
    """A sampler over ``[0, n)`` with bounded-Zipf popularity.

    Ranks are randomly assigned to pages so the hot set is scattered.
    Returns a callable ``sampler(rng) -> page``.
    """
    if s == 0.0:
        return lambda rng_: rng_.integers(0, n)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-s
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    permutation = rng.permutation(n)

    def sample(rng_: np.random.Generator) -> int:
        rank = int(np.searchsorted(cdf, rng_.random(), side="right"))
        return int(permutation[min(rank, n - 1)])

    return sample
