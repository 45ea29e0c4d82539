"""Unit tests for answer comparison and error metrics."""

import numpy as np
import pytest

from repro.algebra.aggregates import count, max_, sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.engine.table import Table
from repro.experiments import metrics as metrics_module
from repro.experiments.metrics import answer_structure, compare_answers, strip_limit
from repro.obs import accuracy
from repro.obs.accuracy import compare_tables


def answer(groups, values):
    return Table("ans", {"g": np.asarray(groups), "v": np.asarray(values, dtype=float)})


def row_loop_reference(exact, approx, group_cols, agg_cols):
    """The comparator row at a time: dicts keyed on each row's key tuple
    (a repeated key keeps its first row; keys here are never NaN)."""

    def rows_by_key(table):
        rows = {}
        for i in range(table.num_rows):
            rows.setdefault(tuple(table.column(c)[i].item() for c in group_cols), i)
        return rows

    exact_rows, approx_rows = rows_by_key(exact), rows_by_key(approx)
    errors, checked, covered = [], 0, 0
    for alias in agg_cols:
        for key, j in exact_rows.items():
            i = approx_rows.get(key)
            truth = float(exact.column(alias)[j])
            est = np.nan if i is None else float(approx.column(alias)[i])
            if not (np.isfinite(truth) and np.isfinite(est)):
                continue
            if abs(truth) < 1e-12:
                errors.append(0.0 if abs(est) < 1e-12 else 1.0)
            else:
                errors.append(abs(est - truth) / abs(truth))
            if approx.has_column(alias + "__ci"):
                checked += 1
                covered += abs(est - truth) <= float(approx.column(alias + "__ci")[i])
    return (
        len(exact_rows),
        sum(key not in approx_rows for key in exact_rows),
        float(np.mean(errors)) if errors else 0.0,
        max(errors, default=0.0),
        checked,
        covered,
    )


def random_answer(gen, rows, ci):
    """Two key columns with repeats; values with zeros and NaNs."""
    values = gen.choice([0.0, np.nan, 1.0], rows, p=[0.1, 0.1, 0.8]) * gen.normal(5, 3, (2, rows))
    cols = {"a": gen.integers(0, 4, rows), "b": gen.integers(0, 3, rows),
            "x": values[0], "y": values[1]}
    if ci:
        cols["x__ci"] = gen.exponential(2.0, rows)
    return Table("t", cols)


class TestCompareAnswers:
    def test_identical_answers(self):
        exact = answer([1, 2], [10.0, 20.0])
        metrics = compare_answers(exact, exact, ["g"], ["v"])
        assert metrics.groups_missed == 0
        assert metrics.aggregation_error == 0.0

    def test_missed_and_extra_groups(self):
        exact = answer([1, 2, 3], [10, 20, 30])
        approx = answer([1, 4], [10, 40])
        metrics = compare_answers(exact, approx, ["g"], ["v"])
        assert metrics.groups_missed == 2 and metrics.groups_matched == 1
        assert metrics.missed_fraction == pytest.approx(2 / 3)

    def test_relative_error(self):
        exact = answer([1], [100.0])
        approx = answer([1], [110.0])
        metrics = compare_answers(exact, approx, ["g"], ["v"])
        assert metrics.aggregation_error == pytest.approx(0.10)

    def test_zero_truth_handled(self):
        exact = answer([1], [0.0])
        approx = answer([1], [0.0])
        assert compare_answers(exact, approx, ["g"], ["v"]).aggregation_error == 0.0
        # A non-zero estimate of an exact 0 scores 1 (not |est| = 0.5).
        approx = answer([1], [0.5])
        assert compare_answers(exact, approx, ["g"], ["v"]).aggregation_error == 1.0

    def test_nan_group_key_matches_itself(self):
        exact = answer([1.0, np.nan], [10.0, 20.0])
        copy = answer(exact.column("g").copy(), [10.0, 20.0])
        metrics = compare_answers(exact, copy, ["g"], ["v"])
        assert metrics.groups_exact == 2 and metrics.groups_missed == 0
        assert metrics.aggregation_error == 0.0

    def test_mean_error_is_over_cells_in_exact_row_order(self):
        # Rows arrive in another order and one exact group is missed: the
        # mean runs over the two aggregates' matched cells, the max too.
        exact = Table("a", {"g": np.array([3, 1, 2]), "v": np.array([10.0, 20.0, 40.0]),
                            "w": np.array([1.0, 2.0, 4.0])})
        approx = Table("b", {"g": np.array([2, 3]), "v": np.array([44.0, 10.0]),
                             "w": np.array([4.0, 2.0])})
        metrics = compare_answers(exact, approx, ["g"], ["v", "w", "absent"])
        assert metrics.groups_missed == 1 and metrics.groups_matched == 2
        assert metrics.aggregation_error == pytest.approx((0.0 + 0.1 + 1.0 + 0.0) / 4)
        assert metrics.max_aggregation_error == 1.0
        assert metrics.cells_checked == 0  # no __ci columns

    def test_ci_cells_counted_where_the_answer_has_them(self):
        exact = answer([1, 2], [10.0, 20.0])
        approx = Table("b", {"g": np.array([1, 2]), "v": np.array([11.0, 30.0]),
                             "v__ci": np.array([2.0, 5.0])})
        metrics = compare_answers(exact, approx, ["g"], ["v"])
        assert (metrics.cells_checked, metrics.cells_covered) == (2, 1)
        assert compare_tables(approx, exact) == metrics

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_row_loop_reference(self, seed):
        gen = np.random.default_rng(seed)
        exact = random_answer(gen, int(gen.integers(0, 14)), ci=False)
        approx = random_answer(gen, int(gen.integers(0, 14)), ci=True)
        metrics = compare_answers(exact, approx, ["a", "b"], ["x", "y"])
        assert (
            metrics.groups_exact, metrics.groups_missed,
            metrics.aggregation_error, metrics.max_aggregation_error,
            metrics.cells_checked, metrics.cells_covered,
        ) == row_loop_reference(exact, approx, ["a", "b"], ["x", "y"])

    def test_one_comparator(self):
        assert metrics_module.compare_answers is accuracy.compare_answers

    def test_scalar_answers(self):
        exact = Table("a", {"v": np.array([100.0])})
        approx = Table("b", {"v": np.array([90.0])})
        metrics = compare_answers(exact, approx, [], ["v"])
        assert metrics.aggregation_error == pytest.approx(0.10)


class TestPlanHelpers:
    def test_strip_limit(self, sales_db):
        q = (
            scan(sales_db, "sales")
            .groupby("s_item")
            .agg(sum_(col("s_amount"), "rev"))
            .orderby("rev", desc=True)
            .limit(10)
            .build("q")
        )
        from repro.algebra.logical import Aggregate

        assert isinstance(strip_limit(q.plan), Aggregate)

    def test_strip_limit_noop(self, sales_db):
        q = scan(sales_db, "sales").groupby("s_item").agg(count("n")).build("q")
        assert strip_limit(q.plan) is q.plan

    def test_answer_structure(self, sales_db):
        q = (
            scan(sales_db, "sales")
            .groupby("s_item", "s_day")
            .agg(sum_(col("s_amount"), "rev"), count("n"))
            .build("q")
        )
        groups, aggs = answer_structure(q.plan)
        assert groups == ("s_item", "s_day")
        assert aggs == ("rev", "n")

    def test_answer_structure_excludes_min_max(self, sales_db):
        q = (
            scan(sales_db, "sales")
            .groupby("s_item")
            .agg(max_(col("s_amount"), "m"), count("n"))
            .build("q")
        )
        _groups, aggs = answer_structure(q.plan)
        assert aggs == ("n",)
