"""Tests for the multiple-Bloom-filter hotness tracker."""

import numpy as np
import pytest

from repro.core.hotness import MultiBloomHotness
from repro.errors import ConfigurationError


class TestBasics:
    def test_unseen_key_is_cold(self):
        tracker = MultiBloomHotness()
        assert tracker.hotness(42) == 0
        assert tracker.frequency_level(42) == 1

    def test_hotness_grows_across_windows(self):
        tracker = MultiBloomHotness(n_filters=4, window=10)
        for _ in range(4):  # four windows
            for access in range(10):
                tracker.record_read(7 if access == 0 else 1000 + access)
        assert tracker.hotness(7) >= 3

    def test_single_read_is_not_hot(self):
        """One access must not mark a page hot (the promotion-thrash bug)."""
        tracker = MultiBloomHotness(n_filters=4, freq_levels=2)
        tracker.record_read(7)
        assert tracker.frequency_level(7) == 1

    def test_persistent_key_reaches_top_level(self):
        tracker = MultiBloomHotness(n_filters=4, window=5, freq_levels=2)
        for _ in range(25):
            tracker.record_read(7)
        assert tracker.frequency_level(7) == 2

    def test_ageing_forgets_stale_keys(self):
        tracker = MultiBloomHotness(n_filters=2, window=4, bits_per_filter=1 << 12)
        tracker.record_read(7)
        # Two full window rotations without key 7 clear both filters.
        for i in range(8):
            tracker.record_read(100 + i)
        assert tracker.hotness(7) == 0

    def test_fill_ratios_bounded(self):
        tracker = MultiBloomHotness(bits_per_filter=256, n_hashes=2, window=100)
        for i in range(50):
            tracker.record_read(i)
        assert all(0.0 <= r <= 1.0 for r in tracker.fill_ratios())


class TestLevels:
    def test_level_monotone_in_hotness(self):
        tracker = MultiBloomHotness(n_filters=4, window=3, freq_levels=4)
        levels = []
        for _ in range(4):
            for _ in range(3):
                tracker.record_read(7)
            levels.append(tracker.frequency_level(7))
        assert levels == sorted(levels)

    def test_level_bounded_by_freq_levels(self):
        tracker = MultiBloomHotness(n_filters=8, window=2, freq_levels=3)
        for _ in range(40):
            tracker.record_read(7)
        assert tracker.frequency_level(7) <= 3


class TestValidation:
    def test_rejects_single_filter(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(n_filters=1)

    def test_rejects_single_level(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(freq_levels=1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(bits_per_filter=0)
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(window=0)

    def test_negative_key_rejected(self):
        tracker = MultiBloomHotness()
        with pytest.raises(ConfigurationError):
            tracker.record_read(-3)
        with pytest.raises(ConfigurationError):
            tracker.record_and_level(-3)
        with pytest.raises(ConfigurationError):
            tracker.hotness(-1)

    def test_key_beyond_64_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness().record_read(2**64)


def numpy_seeds(seed: int, n_filters: int, n_hashes: int) -> list[np.ndarray]:
    """Per-filter hash seeds, derived the way the numpy tracker did."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_filters):
        seeds = rng.integers(1, 2**63 - 1, size=n_hashes, dtype=np.int64)
        out.append((seeds.astype(np.uint64) << np.uint64(1)) | np.uint64(1))
    return out


def numpy_positions(key, seeds: np.ndarray, n_bits: int) -> np.ndarray:
    """Reference oracle: the former numpy ``uint64`` hash formula."""
    mixed = (np.uint64(key) + np.uint64(0x9E3779B97F4A7C15)) * seeds
    return (mixed >> np.uint64(17)) % np.uint64(n_bits)


class TestHashParity:
    """Pure-int hashing is bit-identical to the numpy ``uint64`` oracle."""

    @pytest.mark.parametrize("seed", [0x5EED, 0, 1, 7, 2**31 + 11])
    def test_positions_match_oracle(self, seed):
        n_bits = 1 << 16
        tracker = MultiBloomHotness(seed=seed, bits_per_filter=n_bits)
        rng = np.random.default_rng(seed)
        keys = list(range(10_001)) + [
            int(k) for k in rng.integers(0, 2**40, size=2_000)
        ]
        for bloom, seeds in zip(tracker._filters, numpy_seeds(seed, 4, 2)):
            assert bloom._seeds == tuple(int(s) for s in seeds)
            for key in keys:
                expected = [int(p) for p in numpy_positions(key, seeds, n_bits)]
                assert bloom._positions(key) == expected

    def test_numpy_int64_keys_match_oracle(self):
        n_bits = 1000  # not a power of two: exercises the modulo
        tracker = MultiBloomHotness(bits_per_filter=n_bits)
        keys = np.random.default_rng(3).integers(0, 2**62, size=500, dtype=np.int64)
        bloom, seeds = tracker._filters[0], numpy_seeds(0x5EED, 4, 2)[0]
        for key in keys:
            expected = [int(p) for p in numpy_positions(key, seeds, n_bits)]
            assert bloom._positions(int(key)) == expected
        for key in keys[:50]:
            tracker.record_read(key)  # np.int64 keys are accepted as-is
            assert tracker.hotness(key) >= 1

    def test_contains_agrees_with_positions(self):
        tracker = MultiBloomHotness(bits_per_filter=512, window=10**6)
        for key in range(0, 400, 3):
            tracker.record_read(key)
        bloom = tracker._filters[0]
        for key in range(400):
            expected = all(bloom.bits[p] for p in bloom._positions(key))
            assert bloom.contains(key) == expected

    def test_record_and_level_equals_two_calls(self):
        stream = [
            int(k) for k in np.random.default_rng(5).zipf(1.3, size=6_000) % 3_000
        ]
        fused = MultiBloomHotness(window=97, bits_per_filter=4096)
        split = MultiBloomHotness(window=97, bits_per_filter=4096)
        for key in stream:
            level = fused.record_and_level(key)
            split.record_read(key)
            assert level == split.frequency_level(key)
        assert fused.fill_ratios() == split.fill_ratios()

    def test_fill_ratios_match_numpy_replay(self):
        n_filters, n_bits, window = 4, 4096, 97
        stream = [
            int(k) for k in np.random.default_rng(6).zipf(1.3, size=6_000) % 3_000
        ]
        tracker = MultiBloomHotness(
            n_filters=n_filters, bits_per_filter=n_bits, window=window
        )
        seeds = numpy_seeds(0x5EED, n_filters, 2)
        bits = [np.zeros(n_bits, dtype=bool) for _ in range(n_filters)]
        current = 0
        for i, key in enumerate(stream, start=1):
            tracker.record_read(key)
            bits[current][numpy_positions(key, seeds[current], n_bits)] = True
            if i % window == 0:
                current = (current + 1) % n_filters
                bits[current][:] = False
        assert tracker.fill_ratios() == [float(b.mean()) for b in bits]
