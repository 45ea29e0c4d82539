"""The aggregate's kernels against the plain forms they replace.

``tests/parallel/test_merge.py`` holds the estimator to a row-at-a-time
reference; this file pins what the kernels do on the way: COUNT DISTINCT
pairs read off a dense (group, value) key equal the grouped pairs, an
unweighted input sums without a vector of ones and gives the bits of one
weighted by 1.0, every SUM-like answer is float64 (an empty input too),
and the Fig. 1 query's exact aggregate takes those paths.
"""

import collections

import numpy as np
import pytest

from repro.algebra.aggregates import avg, count, count_distinct, count_if, sum_, sum_if
from repro.algebra.expressions import col
from repro.engine import aggregate, keys
from repro.engine.aggregate import (
    CI_SUFFIX,
    Estimation,
    finalize_partial,
    merge_partials,
    partial_aggregate,
)
from repro.engine.keys import FIRST_ROW_PREFIX
from repro.engine.operators import execute_aggregate
from repro.engine.table import WEIGHT_COLUMN, Table
from tests.engine.test_keys import ScatterCounter

UINT64_PAST_INT64 = np.array([2**63 + 9, 2**63 + 5, 2**63 + 9, 2**64 - 1], dtype=np.uint64)


def pair_values(name, n, rng):
    """A value column of ``n`` rows; the kinds ``_distinct_pairs`` meets."""
    if name == "int64":
        return rng.integers(0, 50, n)
    if name == "int32-negative":
        return rng.integers(-20, 20, n).astype(np.int32)
    if name == "uint8":
        return rng.choice(np.array([0, 1, 7, 254, 255], dtype=np.uint8), n)
    if name == "uint64":
        return rng.integers(0, 300, n).astype(np.uint64)
    if name == "int64-near-min":  # the key must not pass through int64's ends
        return np.iinfo(np.int64).min + rng.integers(0, 9, n)
    if name == "int64-near-max":
        return np.iinfo(np.int64).max - rng.integers(0, 9, n)
    assert name == "uint64-past-int64"
    return rng.choice(UINT64_PAST_INT64, n)


def grouped_pairs(monkeypatch, *args, **kwargs):
    """``_distinct_pairs`` through ``group_codes``, as every shape the dense
    key does not take goes."""
    with monkeypatch.context() as patch:
        patch.setattr(aggregate, "_dense_pair_key", lambda codes, values: None)
        return aggregate._distinct_pairs(*args, **kwargs)


def assert_same_pairs(got, want):
    (got_pairs, got_codes, got_count), (want_pairs, want_codes, want_count) = got, want
    assert got_count == want_count
    for g, w in zip((got_pairs.groups, *got_pairs.values, got_codes),
                    (want_pairs.groups, *want_pairs.values, want_codes)):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


class TestDistinctPairs:
    @pytest.mark.parametrize("groups", [1, 7], ids=["scalar", "grouped"])
    @pytest.mark.parametrize("n", [0, 1, 600])
    @pytest.mark.parametrize(
        "values", ["int64", "int32-negative", "uint8", "uint64", "uint64-past-int64",
                   "int64-near-min", "int64-near-max"]
    )
    def test_decoded_pairs_equal_the_grouped_ones(self, monkeypatch, values, n, groups):
        rng = np.random.default_rng(n + groups)
        codes = rng.integers(0, groups, n)
        column = pair_values(values, n, rng)
        decoded = aggregate._dense_pair_key(codes, [column]) is not None
        assert decoded == (n > 0 and values != "uint64-past-int64")
        got = aggregate._distinct_pairs(codes, [column], per_row=True)
        assert_same_pairs(got, grouped_pairs(monkeypatch, codes, [column], per_row=True))
        if decoded:  # per-row pair codes are built only when asked for
            assert aggregate._distinct_pairs(codes, [column])[1] is None

    def test_coded_column_decodes_through_its_dictionary(self, monkeypatch):
        rng = np.random.default_rng(3)
        words = np.array(["pear", "fig", "apple", "kiwi", ""])
        table = Table("t", {"g": rng.integers(0, 4, 500), "w": rng.choice(words, 500)}).encoded()
        assert table.dictionary("w") is not None
        codes = table.key_column("g")
        args = (codes, [table.key_column("w")], table, ["w"])
        assert aggregate._dense_pair_key(codes, args[1]) is not None
        got = aggregate._distinct_pairs(*args, per_row=True)
        assert got[0].values[0].dtype.kind == "U"
        assert_same_pairs(got, grouped_pairs(monkeypatch, *args, per_row=True))

    def test_sparse_and_multi_column_values_are_grouped(self):
        codes = np.zeros(4, dtype=np.int64)
        sparse = np.array([0, 1 << 40, 5, 0])
        assert aggregate._dense_pair_key(codes, [sparse]) is None
        assert aggregate._dense_pair_key(codes, [sparse % 7, sparse % 3]) is None
        assert aggregate._dense_pair_key(codes, [sparse.astype(np.float64)]) is None

    @pytest.mark.parametrize("expr", [col("k"), col("k") * 3 - 40, col("x") > 5.0],
                             ids=["column", "int-expr", "bool-expr"])
    def test_states_and_merges_match_the_grouped_path(self, monkeypatch, expr):
        rng = np.random.default_rng(5)
        table = Table("t", {
            "g": rng.integers(0, 9, 900), "k": rng.integers(-10, 60, 900),
            "x": rng.normal(5.0, 2.0, 900), WEIGHT_COLUMN: rng.choice([2.0, 4.0], 900),
        })
        aggs = (count_distinct(expr, "d"), sum_(col("x"), "s"))
        how = Estimation(compute_ci=True, universe_variance=(("k",), 0.5))
        parts = [table.take(np.arange(i, 900, 3)) for i in range(3)]

        def answer():
            partials = [partial_aggregate(p, ("g",), aggs, how) for p in parts]
            return [finalize_partial(s, aggs, how) for s in (*partials, merge_partials(partials))]

        got = answer()
        with monkeypatch.context() as patch:
            patch.setattr(aggregate, "_dense_pair_key", lambda codes, values: None)
            want = answer()
        for g, w in zip(got, want):
            for c in w.column_names:
                np.testing.assert_array_equal(g.column(c), w.column(c), err_msg=c)


SUM_LIKES = (
    sum_(col("x"), "s"), count("n"), sum_if(col("x"), col("k") > 2, "si"),
    count_if(col("k") > 2, "ci"), avg(col("x"), "a"),
)


def sales(n, weights=None):
    rng = np.random.default_rng(n)
    columns = {"g": rng.integers(0, 5, n), "k": rng.integers(0, 6, n), "x": rng.normal(3.0, 9.0, n)}
    if weights is not None:
        columns[WEIGHT_COLUMN] = np.full(n, weights)
    return Table("t", columns)


class TestSums:
    @pytest.mark.parametrize("group_by", [(), ("g",)])
    def test_unweighted_sums_are_the_bits_of_weight_one(self, group_by):
        plain = execute_aggregate(sales(3000), group_by, SUM_LIKES)
        ones = execute_aggregate(sales(3000, weights=1.0), group_by, SUM_LIKES)
        for c in plain.column_names:
            assert plain.column(c).tobytes() == ones.column(c).tobytes(), c

    def test_no_weight_vector_for_unweighted_input(self, monkeypatch):
        made = []
        monkeypatch.setattr(Table, "weights", lambda self: made.append(self.num_rows))
        execute_aggregate(sales(3000), ("g",), SUM_LIKES, compute_ci=True)
        assert made == []

    @pytest.mark.parametrize("compute_ci", [False, True])
    @pytest.mark.parametrize("group_by", [(), ("g",)])
    @pytest.mark.parametrize("weights", [None, 4.0], ids=["unweighted", "weighted"])
    def test_sum_likes_are_float64_over_empty_input(self, weights, group_by, compute_ci):
        empty = sales(0, weights)
        how = Estimation(compute_ci=compute_ci)
        out = finalize_partial(partial_aggregate(empty, group_by, SUM_LIKES, how), SUM_LIKES, how)
        assert out.num_rows == (0 if group_by else 1)
        for c in out.column_names:
            if c not in group_by:
                assert out.column(c).dtype == np.float64, c
        if not group_by:
            for alias in ("s", "n", "si", "ci"):
                assert out.column(alias).tolist() == [0.0]
                if compute_ci:
                    assert out.column(alias + CI_SUFFIX).tolist() == [0.0]

    @pytest.mark.parametrize("group_by", [(), ("g",)])
    def test_empty_state_merges_away(self, group_by):
        how = Estimation(compute_ci=True)
        full = partial_aggregate(sales(500, 2.0), group_by, SUM_LIKES, how)
        empty = partial_aggregate(sales(0, 2.0), group_by, SUM_LIKES, how)
        merged = finalize_partial(merge_partials([empty, full]), SUM_LIKES, how)
        alone = finalize_partial(full, SUM_LIKES, how)
        for c in alone.column_names:
            assert merged.column(c).dtype == alone.column(c).dtype, c
            np.testing.assert_array_equal(merged.column(c), alone.column(c), err_msg=c)


class TestFig1ExactAggregate:
    """The paper's Fig. 1 query (q12) exact at scale 0.05: its aggregate
    reads the top join unbuilt, finds first rows within two prefixes,
    builds no weight vector for its unweighted input and reads its COUNT
    DISTINCT pairs off the dense key."""

    def test_paths(self, monkeypatch):
        from repro.engine.executor import Executor
        from repro.optimizer.planner import QuickrPlanner
        from repro.workloads.tpcds import generate_tpcds, query_by_name

        database = generate_tpcds(scale=0.05, seed=1)
        plan = QuickrPlanner(database).plan_baseline(query_by_name(database, "q12")).plan
        counter, seen = ScatterCounter(), collections.Counter()
        monkeypatch.setattr(keys, "np", counter)
        monkeypatch.setattr(aggregate, "np", counter)
        inputs, weights_built, tables_built = [], [], []
        real_partial, real_dense = aggregate.partial_aggregate, aggregate._dense_pair_key
        real_init = Table.__init__

        def partial(table, *args, **kwargs):
            inputs.append((table.num_rows, table.has_weights()))
            return real_partial(table, *args, **kwargs)

        def dense(codes, values):
            key = real_dense(codes, values)
            seen["decoded" if key is not None else "grouped"] += 1
            return key

        def weights(self):
            weights_built.append(self.num_rows)
            return np.ones(self.num_rows)

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            tables_built.append(self.num_rows)

        import repro.engine.operators as operators
        monkeypatch.setattr(operators, "partial_aggregate", partial)
        monkeypatch.setattr(aggregate, "_dense_pair_key", dense)
        monkeypatch.setattr(Table, "weights", weights)
        monkeypatch.setattr(Table, "__init__", init)
        result = Executor(database).execute(plan)

        [(rows, weighted)] = inputs
        assert rows == result.cardinalities[(0,)] > 100_000 and not weighted
        assert max(tables_built) < rows  # the join's output is never built
        assert 0 < sum(counter.rows) <= 2 * FIRST_ROW_PREFIX
        assert rows not in weights_built
        assert seen == {"decoded": 1}
