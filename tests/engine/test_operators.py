"""Unit tests for physical operators, including Table 8 weighted semantics."""

import numpy as np
import pytest

from repro.algebra.aggregates import (
    avg,
    count,
    count_distinct,
    count_if,
    max_,
    min_,
    sum_,
    sum_if,
)
from repro.algebra.expressions import col
from repro.engine import operators
from repro.engine.operators import CI_SUFFIX
from repro.engine.table import WEIGHT_COLUMN, Table


def brute_force_join(left, right, lk, rk):
    pairs = []
    for i in range(left.num_rows):
        for j in range(right.num_rows):
            if all(left.column(a)[i] == right.column(b)[j] for a, b in zip(lk, rk)):
                pairs.append((i, j))
    return pairs


class TestSelectProject:
    def test_select(self):
        t = Table("t", {"a": np.array([1, 2, 3])})
        out = operators.execute_select(t, col("a") >= 2)
        np.testing.assert_array_equal(out.column("a"), [2, 3])

    def test_project_computes(self):
        t = Table("t", {"a": np.array([1, 2])})
        out = operators.execute_project(t, {"double": col("a") * 2})
        np.testing.assert_array_equal(out.column("double"), [2, 4])

    def test_project_preserves_weight(self):
        t = Table("t", {"a": np.array([1, 2]), WEIGHT_COLUMN: np.array([3.0, 3.0])})
        out = operators.execute_project(t, {"a": col("a")})
        assert out.has_weights()


class TestJoin:
    def test_inner_matches_brute_force(self, rng):
        left = Table("l", {"k": rng.integers(0, 5, 40), "v": rng.normal(size=40)})
        right = Table("r", {"j": rng.integers(0, 5, 30), "w": rng.normal(size=30)})
        out = operators.execute_join(left, right, ["k"], ["j"])
        assert out.num_rows == len(brute_force_join(left, right, ["k"], ["j"]))

    def test_inner_multi_key(self, rng):
        left = Table("l", {"k1": rng.integers(0, 3, 25), "k2": rng.integers(0, 3, 25)})
        right = Table("r", {"j1": rng.integers(0, 3, 20), "j2": rng.integers(0, 3, 20)})
        out = operators.execute_join(left, right, ["k1", "k2"], ["j1", "j2"])
        assert out.num_rows == len(brute_force_join(left, right, ["k1", "k2"], ["j1", "j2"]))

    def test_no_matches(self):
        left = Table("l", {"k": np.array([1, 2])})
        right = Table("r", {"j": np.array([5, 6])})
        assert operators.execute_join(left, right, ["k"], ["j"]).num_rows == 0

    def test_left_join_keeps_unmatched(self):
        left = Table("l", {"k": np.array([1, 2, 3])})
        right = Table("r", {"j": np.array([1]), "w": np.array([9.0])})
        out = operators.execute_join(left, right, ["k"], ["j"], how="left")
        assert out.num_rows == 3
        assert np.isnan(out.column("w")).sum() == 2

    def test_right_join_keeps_unmatched(self):
        left = Table("l", {"k": np.array([1]), "v": np.array([1.0])})
        right = Table("r", {"j": np.array([1, 2])})
        out = operators.execute_join(left, right, ["k"], ["j"], how="right")
        assert out.num_rows == 2

    @pytest.mark.parametrize("how", ("left", "right"))
    def test_outer_fill_of_string_columns(self, how):
        # The ISSUE 18 repro: the inner side carries a string column, which
        # the fill used to push through astype(float64).
        outer = Table("o", {"k": np.array([1, 2, 3]), "a": np.array([1.5, 2.5, 3.5])})
        inner = Table("i", {"k2": np.array([1]), "s": np.array(["x"]), "i": np.array([7])})
        left, right, lk, rk = (outer, inner, "k", "k2")
        if how == "right":
            left, right, lk, rk = inner, outer, "k2", "k"
        out = operators.execute_join(left, right, [lk], [rk], how=how)
        assert out.num_rows == 3
        np.testing.assert_array_equal(out.column("k"), [1, 2, 3])
        np.testing.assert_array_equal(out.column("s"), ["x", "", ""])
        assert out.column("s").dtype == inner.column("s").dtype
        np.testing.assert_array_equal(out.column("i"), [7.0, np.nan, np.nan])
        # ... and a column nobody asked for is not touched at all.
        narrow = operators.execute_join(left, right, [lk], [rk], how=how, columns=("a", "i"))
        assert narrow.column_names == ("a", "i")
        np.testing.assert_array_equal(narrow.column("i"), [7.0, np.nan, np.nan])

    def test_outer_fill_rows_keep_the_outer_weight(self):
        left = Table("l", {"k": np.array([1, 2]), WEIGHT_COLUMN: np.array([2.0, 3.0])})
        right = Table("r", {"j": np.array([1]), WEIGHT_COLUMN: np.array([5.0])})
        out = operators.execute_join(left, right, ["k"], ["j"], how="left")
        np.testing.assert_array_equal(out.weights(), [10.0, 3.0])

    def test_columns_selects_and_orders_the_output(self):
        left = Table("l", {"k": np.array([1, 2]), "a": np.array([10, 20])})
        right = Table("r", {"j": np.array([2, 1]), "b": np.array([0.5, 0.25])})
        out = operators.execute_join(left, right, ["k"], ["j"], columns=("b",))
        assert out.column_names == ("b",)  # keys are read, not copied
        np.testing.assert_array_equal(out.column("b"), [0.25, 0.5])

    def test_weights_multiply(self):
        left = Table("l", {"k": np.array([1]), WEIGHT_COLUMN: np.array([2.0])})
        right = Table("r", {"j": np.array([1]), WEIGHT_COLUMN: np.array([5.0])})
        out = operators.execute_join(left, right, ["k"], ["j"])
        np.testing.assert_array_equal(out.weights(), [10.0])

    def test_one_sided_weight_passes_through(self):
        left = Table("l", {"k": np.array([1, 1]), WEIGHT_COLUMN: np.array([4.0, 4.0])})
        right = Table("r", {"j": np.array([1])})
        out = operators.execute_join(left, right, ["k"], ["j"])
        np.testing.assert_array_equal(out.weights(), [4.0, 4.0])


class TestExactAggregation:
    @pytest.fixture()
    def table(self):
        return Table(
            "t",
            {
                "g": np.array([0, 0, 1, 1, 1]),
                "x": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                "c": np.array([1, 1, 1, 2, 2]),
            },
        )

    def test_sum_count_avg(self, table):
        out = operators.execute_aggregate(
            table, ["g"], [sum_(col("x"), "s"), count("n"), avg(col("x"), "m")]
        )
        np.testing.assert_allclose(out.column("s"), [3.0, 12.0])
        np.testing.assert_allclose(out.column("n"), [2.0, 3.0])
        np.testing.assert_allclose(out.column("m"), [1.5, 4.0])

    def test_min_max(self, table):
        out = operators.execute_aggregate(table, ["g"], [min_(col("x"), "lo"), max_(col("x"), "hi")])
        np.testing.assert_allclose(out.column("lo"), [1.0, 3.0])
        np.testing.assert_allclose(out.column("hi"), [2.0, 5.0])

    def test_count_distinct(self, table):
        out = operators.execute_aggregate(table, ["g"], [count_distinct(col("c"), "d")])
        np.testing.assert_allclose(out.column("d"), [1.0, 2.0])

    def test_conditional_aggregates(self, table):
        out = operators.execute_aggregate(
            table,
            ["g"],
            [sum_if(col("x"), col("c") == 2, "s2"), count_if(col("c") == 2, "n2")],
        )
        np.testing.assert_allclose(out.column("s2"), [0.0, 9.0])
        np.testing.assert_allclose(out.column("n2"), [0.0, 2.0])

    def test_scalar_aggregate(self, table):
        out = operators.execute_aggregate(table, [], [sum_(col("x"), "s")])
        assert out.num_rows == 1
        assert out.column("s")[0] == 15.0

    def test_scalar_on_empty_input(self):
        t = Table("t", {"x": np.array([])})
        out = operators.execute_aggregate(t, [], [sum_(col("x"), "s"), avg(col("x"), "m")])
        assert out.column("s")[0] == 0.0
        assert np.isnan(out.column("m")[0])

    def test_groups_in_first_appearance_order(self):
        t = Table("t", {"g": np.array([5, 2, 5, 9]), "x": np.ones(4)})
        out = operators.execute_aggregate(t, ["g"], [count("n")])
        np.testing.assert_array_equal(out.column("g"), [5, 2, 9])

    def test_grouped_on_empty_input_yields_zero_groups(self):
        t = Table("t", {"g": np.array([], dtype=np.int64), "x": np.array([])})
        out = operators.execute_aggregate(t, ["g"], [sum_(col("x"), "s"), count("n")])
        assert out.num_rows == 0
        assert set(out.column_names) == {"g", "s", "n"}


class TestWeightedAggregation:
    """Table 8: estimators over a weighted sample recover true values."""

    def test_sum_weighted(self):
        # A "sample" of half the rows at weight 2 reproduces the full sum.
        t = Table(
            "t",
            {"g": np.array([0, 1]), "x": np.array([1.0, 3.0]), WEIGHT_COLUMN: np.array([2.0, 2.0])},
        )
        out = operators.execute_aggregate(t, ["g"], [sum_(col("x"), "s"), count("n")])
        np.testing.assert_allclose(out.column("s"), [2.0, 6.0])
        np.testing.assert_allclose(out.column("n"), [2.0, 2.0])

    def test_avg_is_ratio_of_weighted(self):
        t = Table(
            "t",
            {"g": np.zeros(2, dtype=int), "x": np.array([1.0, 2.0]), WEIGHT_COLUMN: np.array([1.0, 3.0])},
        )
        out = operators.execute_aggregate(t, ["g"], [avg(col("x"), "m")])
        np.testing.assert_allclose(out.column("m"), [(1 + 6) / 4.0])

    def test_count_distinct_universe_rescale(self):
        t = Table(
            "t",
            {"g": np.zeros(3, dtype=int), "c": np.array([1, 2, 2]), WEIGHT_COLUMN: np.full(3, 4.0)},
        )
        out = operators.execute_aggregate(
            t, ["g"], [count_distinct(col("c"), "d")], universe_rescale={"d": 4.0}
        )
        np.testing.assert_allclose(out.column("d"), [8.0])

    def test_ci_columns_emitted(self):
        t = Table(
            "t",
            {"g": np.zeros(4, dtype=int), "x": np.ones(4), WEIGHT_COLUMN: np.full(4, 2.0)},
        )
        out = operators.execute_aggregate(t, ["g"], [sum_(col("x"), "s")], compute_ci=True)
        assert out.has_column("s" + CI_SUFFIX)
        assert out.column("s" + CI_SUFFIX)[0] > 0

    def test_exact_input_has_zero_ci(self):
        t = Table("t", {"g": np.zeros(4, dtype=int), "x": np.ones(4)})
        out = operators.execute_aggregate(t, ["g"], [sum_(col("x"), "s")], compute_ci=True)
        assert out.column("s" + CI_SUFFIX)[0] == 0.0

    def test_grouped_on_empty_weighted_input(self):
        # A sampler can legitimately return zero rows; the grouped path must
        # produce an empty (not scalar) result with the estimate columns and
        # CI columns present.
        t = Table(
            "t",
            {
                "g": np.array([], dtype=np.int64),
                "x": np.array([]),
                WEIGHT_COLUMN: np.array([]),
            },
        )
        out = operators.execute_aggregate(
            t, ["g"], [sum_(col("x"), "s"), count("n")], compute_ci=True
        )
        assert out.num_rows == 0
        assert out.has_column("s") and out.has_column("n")
        assert out.has_column("s" + CI_SUFFIX) and out.has_column("n" + CI_SUFFIX)

    def test_universe_variance_mode(self):
        # Two universe key values, perfectly correlated rows within a value.
        t = Table(
            "t",
            {
                "g": np.zeros(4, dtype=int),
                "u": np.array([1, 1, 2, 2]),
                "x": np.ones(4),
                WEIGHT_COLUMN: np.full(4, 2.0),
            },
        )
        out = operators.execute_aggregate(
            t,
            ["g"],
            [sum_(col("x"), "s")],
            compute_ci=True,
            universe_variance=(("u",), 0.5),
        )
        # Var = (1-p)/p^2 * sum_g (sum y)^2 = 0.5/0.25 * (4 + 4) = 16 => CI = 1.96*4
        np.testing.assert_allclose(out.column("s" + CI_SUFFIX), [1.96 * 4.0])


class TestOrderLimitUnion:
    def test_orderby_and_limit(self):
        t = Table("t", {"a": np.array([2, 1, 3])})
        out = operators.execute_limit(operators.execute_orderby(t, ["a"], True), 2)
        np.testing.assert_array_equal(out.column("a"), [3, 2])

    def test_union_all_aligns_weights(self):
        a = Table("a", {"x": np.array([1.0])})
        b = Table("b", {"x": np.array([2.0]), WEIGHT_COLUMN: np.array([3.0])})
        out = operators.execute_union_all([a, b])
        np.testing.assert_array_equal(out.weights(), [1.0, 3.0])
