"""Unit tests for the accuracy analysis: the executed Horvitz-Thompson
estimator, group coverage under universe sampling, and plan unrolling."""

import numpy as np
import pytest

from repro.algebra.aggregates import sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import Aggregate, Join, SamplerNode, Select
from repro.core.accuracy import unroll_plan
from repro.engine.aggregate import CI_SUFFIX, Z_95
from repro.engine.operators import execute_aggregate
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec


def ht_sum(values, weights, universe=None):
    """The executed estimator on one group: the SUM estimate and its
    variance, read back from the 95 % CI half-width."""
    cols = {"x": np.asarray(values, dtype=np.float64), WEIGHT_COLUMN: np.asarray(weights)}
    how = {}
    if universe is not None:
        keys, p = universe
        cols["k"] = np.asarray(keys)
        how["universe_variance"] = (("k",), p)
    out = execute_aggregate(Table("t", cols), (), (sum_(col("x"), "s"),), compute_ci=True, **how)
    return out.column("s")[0], (out.column("s" + CI_SUFFIX)[0] / Z_95) ** 2


class TestHtEstimators:
    """Proposition 3 as :mod:`repro.engine.aggregate` executes it."""

    def test_estimate_recovers_sum(self, rng):
        values = rng.normal(10, 2, 1000)
        p = 0.2
        mask = rng.random(1000) < p
        estimate, _ = ht_sum(values[mask], np.full(mask.sum(), 1 / p))
        assert estimate == pytest.approx(values.sum(), rel=0.15)

    def test_variance_independent_matches_empirical(self, rng):
        """The estimated variance should match the Monte-Carlo variance of
        the HT estimator itself."""
        values = rng.exponential(5.0, 2_000)
        p = 0.1
        estimates, predicted = [], []
        for _ in range(200):
            mask = rng.random(2_000) < p
            estimate, variance = ht_sum(values[mask], np.full(int(mask.sum()), 1 / p))
            estimates.append(estimate)
            predicted.append(variance)
        assert np.mean(predicted) == pytest.approx(np.var(estimates), rel=0.3)

    def test_variance_universe_counts_correlation(self):
        p = 0.5
        # (1-p)/p^2 * ((1+1)^2 + 2^2) = 2 * 8 = 16
        _, variance = ht_sum([1.0, 1.0, 2.0], [1 / p] * 3, universe=([7, 7, 9], p))
        assert variance == pytest.approx(16.0)

    def test_variance_nonnegative(self, rng):
        _, variance = ht_sum(rng.normal(size=100), np.full(100, 5.0))
        assert variance >= 0

    def test_confidence_interval_symmetric(self):
        """The answer carries the half-width: the interval is symmetric by
        construction, ``z * sqrt(variance)`` wide on each side."""
        weights = np.full(4, 2.0)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        t = Table("t", {"x": values, WEIGHT_COLUMN: weights})
        out = execute_aggregate(t, (), (sum_(col("x"), "s"),), compute_ci=True)
        # sum (w^2 - w) y^2 = 2 * 30 = 60
        assert out.column("s")[0] == pytest.approx(20.0)
        assert out.column("s" + CI_SUFFIX)[0] == pytest.approx(Z_95 * np.sqrt(60.0))


class TestMissProbabilities:
    def test_universe_empirical(self, rng):
        """Miss probability for a group spanning g key values ~ (1-p)^g."""
        p, g = 0.3, 5
        misses = 0
        trials = 300
        for seed in range(trials):
            t = Table("t", {"k": np.arange(g)})
            out = UniverseSpec(["k"], p, seed=seed).apply(t)
            if out.num_rows == 0:
                misses += 1
        assert misses / trials == pytest.approx((1 - p) ** g, abs=0.05)


class TestUnrolling:
    def make_plan(self, sales_db, sampler_spec):
        base = scan(sales_db, "sales").node
        sampled = SamplerNode(base, sampler_spec)
        filtered = Select(sampled, col("s_qty") > 2)
        return Aggregate(filtered, ("s_item",), [sum_(col("s_amount"), "rev")])

    def test_uniform_floats_past_select(self, sales_db):
        unrolled = unroll_plan(self.make_plan(sales_db, UniformSpec(0.1, seed=1)))
        assert unrolled.kind == "uniform"
        assert unrolled.p == 0.1
        assert any(step.rule == "U2" for step in unrolled.steps)

    def test_universe_pair_collapses_via_v3a(self, sales_db):
        left = SamplerNode(scan(sales_db, "sales").node, UniverseSpec(["s_cust"], 0.2, seed=3))
        right = SamplerNode(
            scan(sales_db, "returns").node, UniverseSpec(["r_cust"], 0.2, seed=3, emit_weight=False)
        )
        join = Join(left.child, right.child, ["s_cust"], ["r_cust"]).with_children([left, right])
        plan = Aggregate(join, ("s_item",), [sum_(col("s_amount"), "rev")])
        unrolled = unroll_plan(plan)
        assert unrolled.kind == "universe"
        assert unrolled.p == 0.2
        assert any(step.rule == "V3a" for step in unrolled.steps)

    def test_independent_samplers_compose_with_u3(self, sales_db):
        left = SamplerNode(scan(sales_db, "sales").node, UniformSpec(0.2, seed=1))
        right = SamplerNode(scan(sales_db, "returns").node, UniformSpec(0.5, seed=2))
        join = Join(left.child, right.child, ["s_cust"], ["r_cust"]).with_children([left, right])
        plan = Aggregate(join, (), [sum_(col("s_amount"), "rev")])
        unrolled = unroll_plan(plan)
        assert unrolled.kind == "uniform"
        assert unrolled.p == pytest.approx(0.1)

    def test_no_samplers_returns_none(self, sales_db):
        plan = scan(sales_db, "sales").groupby("s_item").agg(sum_(col("s_amount"), "r")).build("q").plan
        assert unroll_plan(plan) is None

