"""Property-based tests (hypothesis) for the core invariants.

These encode the paper's formal guarantees as machine-checked properties:

* Horvitz-Thompson unbiasedness of all three samplers for SUM/COUNT;
* the distinct sampler's stratification guarantee for *every* input;
* exact sample-then-join == join-then-sample for the universe sampler;
* weighted aggregation recovers exact answers when weights are 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import count, sum_
from repro.algebra.expressions import col
from repro.engine import operators
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def keyed_table(draw, max_rows=400, max_keys=20):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_keys = draw(st.integers(min_value=1, max_value=max_keys))
    rng = np.random.default_rng(seed)
    return Table(
        "t",
        {
            "k": rng.integers(0, n_keys, n),
            "x": np.round(rng.normal(5.0, 2.0, n), 3),
        },
    )


class TestSamplerInvariants:
    @given(table=keyed_table(), p=st.sampled_from([0.1, 0.3, 0.7]), seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_uniform_weights_constant(self, table, p, seed):
        out = UniformSpec(p, seed=seed).apply(table)
        assert out.num_rows <= table.num_rows
        if out.num_rows:
            assert np.allclose(out.weights(), 1.0 / p)

    @given(table=keyed_table(), p=st.sampled_from([0.2, 0.5]), seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_universe_is_key_closed(self, table, p, seed):
        """Every kept key keeps ALL of its rows (subspace semantics)."""
        out = UniverseSpec(["k"], p, seed=seed).apply(table)
        kept = np.unique(out.column("k"))
        for key in kept:
            assert (out.column("k") == key).sum() == (table.column("k") == key).sum()

    @given(
        table=keyed_table(),
        delta=st.integers(1, 8),
        p=st.sampled_from([0.05, 0.2]),
        seed=st.integers(0, 1000),
    )
    @settings(**SETTINGS)
    def test_distinct_stratification_guarantee(self, table, delta, p, seed):
        """For every input whatsoever: >= min(delta, freq) rows per stratum."""
        out = DistinctSpec(["k"], delta=delta, p=p, seed=seed).apply(table)
        keys, frequencies = np.unique(table.column("k"), return_counts=True)
        for key, freq in zip(keys, frequencies):
            kept = (out.column("k") == key).sum()
            assert kept >= min(delta, freq)

    @given(table=keyed_table(max_rows=200), seed=st.integers(0, 500))
    @settings(**SETTINGS)
    def test_universe_join_commutes_with_sampling(self, table, seed):
        """join(sample(L), sample(R)) == sample(join(L, R)) exactly."""
        p = 0.4
        right = Table("r", {"j": table.column("k").copy(), "y": table.column("x") * 2})
        sampled_then_joined = operators.execute_join(
            UniverseSpec(["k"], p, seed=seed).apply(table),
            UniverseSpec(["j"], p, seed=seed, emit_weight=False).apply(right),
            ["k"],
            ["j"],
        )
        joined_then_sampled = UniverseSpec(["k"], p, seed=seed).apply(
            operators.execute_join(table, right, ["k"], ["j"])
        )
        assert sampled_then_joined.num_rows == joined_then_sampled.num_rows


class TestEstimatorInvariants:
    @given(table=keyed_table())
    @settings(**SETTINGS)
    def test_weight_one_aggregation_is_exact(self, table):
        weighted = table.with_columns({WEIGHT_COLUMN: np.ones(table.num_rows)})
        exact = operators.execute_aggregate(table, ["k"], [sum_(col("x"), "s"), count("n")])
        from_weighted = operators.execute_aggregate(weighted, ["k"], [sum_(col("x"), "s"), count("n")])
        np.testing.assert_allclose(exact.column("s"), from_weighted.column("s"))
        np.testing.assert_allclose(exact.column("n"), from_weighted.column("n"))

    @given(table=keyed_table(), factor=st.sampled_from([2.0, 5.0]))
    @settings(**SETTINGS)
    def test_ht_estimate_scales_with_weight(self, table, factor):
        weighted = table.with_columns({WEIGHT_COLUMN: np.full(table.num_rows, factor)})
        out = operators.execute_aggregate(weighted, [], [count("n")])
        assert out.column("n")[0] == pytest.approx(table.num_rows * factor)

    @given(table=keyed_table())
    @settings(**SETTINGS)
    def test_ci_nonnegative(self, table):
        weighted = table.with_columns({WEIGHT_COLUMN: np.full(table.num_rows, 3.0)})
        out = operators.execute_aggregate(
            weighted, ["k"], [sum_(col("x"), "s")], compute_ci=True
        )
        assert np.all(out.column("s__ci") >= 0)


class TestExpressionInvariants:
    @given(table=keyed_table(), shift=st.integers(-5, 5))
    @settings(**SETTINGS)
    def test_predicate_partition(self, table, shift):
        """A predicate and its negation partition the rows."""
        pred = col("x") > float(shift)
        yes = operators.execute_select(table, pred)
        no = operators.execute_select(table, ~pred)
        assert yes.num_rows + no.num_rows == table.num_rows

    @given(table=keyed_table())
    @settings(**SETTINGS)
    def test_rename_is_semantic_noop(self, table):
        expr = (col("x") + 1) * 2
        renamed = expr.rename({"x": "y"})
        retable = Table("t", {"y": table.column("x")})
        np.testing.assert_allclose(expr.evaluate(table), renamed.evaluate(retable))
