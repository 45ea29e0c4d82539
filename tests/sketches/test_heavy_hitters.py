"""Unit tests for the Manku-Motwani lossy counting sketch."""

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.sketches.heavy_hitters import LossyCounter


class TestGuarantees:
    def test_all_true_heavies_reported(self, rng):
        """Every value with true frequency >= support * N must be reported."""
        n = 50_000
        stream = np.concatenate(
            [
                np.full(int(n * 0.1), 0),
                np.full(int(n * 0.05), 1),
                rng.integers(2, 5_000, int(n * 0.85)),
            ]
        )
        rng.shuffle(stream)
        sketch = LossyCounter(tau=1e-3, support=2e-2)
        sketch.add_many(stream.tolist())
        heavy = {value for value, _count in sketch.heavy_hitters()}
        assert 0 in heavy and 1 in heavy

    def test_frequency_error_bounded(self, rng):
        n = 30_000
        stream = np.concatenate([np.full(3_000, 42), rng.integers(0, 40, n - 3_000)])
        rng.shuffle(stream)
        sketch = LossyCounter(tau=1e-3, support=1e-2)
        sketch.add_many(stream.tolist())
        estimate = sketch.estimate(42)
        assert 3_000 - sketch.tau * n <= estimate <= 3_000

    def test_upper_bound_never_below_truth(self, rng):
        stream = rng.integers(0, 100, 20_000)
        sketch = LossyCounter(tau=1e-3, support=1e-2)
        sketch.add_many(stream.tolist())
        truth = np.bincount(stream)
        for value in range(100):
            assert sketch.estimate_upper(int(value)) >= truth[value] - sketch.tau * len(stream)

    def test_memory_stays_small(self, rng):
        """Uniform stream over many values: entries stay near 1/tau."""
        sketch = LossyCounter(tau=1e-3, support=1e-2)
        sketch.add_many(rng.integers(0, 1_000_000, 50_000).tolist())
        assert sketch.num_entries < 5_000


class TestMechanics:
    def test_bulk_add(self):
        sketch = LossyCounter(tau=0.01, support=0.1)
        sketch.add("x", count=500)
        assert sketch.estimate("x") == 500
        assert sketch.items_seen == 500

    def test_is_heavy(self, rng):
        sketch = LossyCounter(tau=0.01, support=0.05)
        stream = np.concatenate([np.zeros(500, dtype=int), rng.integers(1, 500, 4_500)])
        rng.shuffle(stream)
        sketch.add_many(stream.tolist())
        assert sketch.is_heavy(0)


class TestValidation:
    def test_tau_bounds(self):
        with pytest.raises(SamplerError):
            LossyCounter(tau=0.0, support=0.1)

    def test_support_at_least_tau(self):
        with pytest.raises(SamplerError):
            LossyCounter(tau=0.1, support=0.01)
