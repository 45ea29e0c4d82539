"""Unit tests for the keyed 64-bit hashing behind the universe sampler."""

import numpy as np
import pytest

from repro.samplers.hashing import hash_columns, mix64, universe_fraction


class TestMix64:
    def test_deterministic(self):
        values = np.arange(100, dtype=np.uint64)
        np.testing.assert_array_equal(mix64(values, 7), mix64(values, 7))

    def test_seed_changes_output(self):
        values = np.arange(100, dtype=np.uint64)
        assert not np.array_equal(mix64(values, 1), mix64(values, 2))

    def test_avalanche(self):
        """Adjacent inputs map to wildly different outputs."""
        out = mix64(np.array([1, 2], dtype=np.uint64), 0)
        diff_bits = bin(int(out[0]) ^ int(out[1])).count("1")
        assert diff_bits > 16


class TestHashColumns:
    def test_multi_column_order_sensitive(self, rng):
        a = rng.integers(0, 100, 500)
        b = rng.integers(0, 100, 500)
        assert not np.array_equal(hash_columns([a, b], 0), hash_columns([b, a], 0))

    def test_value_identity_across_names(self, rng):
        """Hashing depends on values only — the key property that lets
        paired universe samplers use differently-named join columns."""
        values = rng.integers(0, 1000, 300)
        np.testing.assert_array_equal(hash_columns([values], 5), hash_columns([values.copy()], 5))

    def test_float_columns(self):
        values = np.array([1.5, 2.5, 1.5])
        out = hash_columns([values], 0)
        assert out[0] == out[2] and out[0] != out[1]

    def test_signed_zeros_hash_alike(self):
        """``-0.0 == 0.0`` for every join and group-by, so for the hash too."""
        out = hash_columns([np.array([0.0, -0.0, 1.0, np.nan])], 3)
        assert out[0] == out[1] and out[0] != out[2]
        pair = hash_columns([np.array([-0.0, 0.0]), np.array([7, 7])], 3)
        assert pair[0] == pair[1]

    def test_string_columns_stable(self):
        values = np.array(["x", "y", "x"])
        out = hash_columns([values], 0)
        assert out[0] == out[2] and out[0] != out[1]

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            hash_columns([], 0)


class TestUniverseFraction:
    def test_range(self, rng):
        points = universe_fraction([rng.integers(0, 10_000, 5_000)], 3)
        assert points.min() >= 0.0 and points.max() < 1.0

    def test_approximately_uniform(self, rng):
        points = universe_fraction([np.arange(20_000)], 9)
        histogram, _ = np.histogram(points, bins=10, range=(0, 1))
        assert histogram.min() > 1_500 and histogram.max() < 2_500
