"""Unit tests for the partition-output merge layer.

The contract under test: ``merge_rows`` reproduces the serial row stream
exactly, and the partial-aggregate pipeline (partial_aggregate ->
merge_partials -> finalize_partial) matches the serial
``execute_aggregate`` up to floating-point reassociation — including
confidence intervals, the AVG delta method, universe variance and
COUNT DISTINCT rescaling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import avg, count, count_distinct, max_, min_, sum_
from repro.algebra.expressions import col
from repro.algebra.logical import Aggregate, Scan
from repro.engine.operators import execute_aggregate
from repro.engine.table import WEIGHT_COLUMN, Table, rowid_column_name
from repro.errors import PlanError
from repro.parallel import (
    finalize_partial,
    merge_heavy_hitters,
    merge_kmv,
    merge_partials,
    merge_rows,
    partial_aggregate,
)
from repro.sketches.distinct_count import KMVCounter
from repro.sketches.heavy_hitters import LossyCounter


def weighted_table(n=4_000, seed=2):
    gen = np.random.default_rng(seed)
    return Table(
        "t",
        {
            "g": gen.integers(0, 9, n),
            "k": gen.integers(0, 40, n),
            "x": gen.normal(5.0, 2.0, n),
            WEIGHT_COLUMN: gen.choice([2.0, 4.0, 8.0], n),
        },
    )


ALL_AGGS = (
    sum_(col("x"), "s"),
    count("n"),
    avg(col("x"), "a"),
    min_(col("x"), "mn"),
    max_(col("x"), "mx"),
    count_distinct(col("k"), "d"),
)


def agg_node(group_by, aggs=ALL_AGGS):
    child = Scan("t", ("g", "k", "x"))
    return Aggregate(child, group_by, aggs)


def via_partials(table, node, num_parts=3, compute_ci=False,
                 universe_rescale=None, universe_variance=None):
    partials = [
        partial_aggregate(part, node, compute_ci=compute_ci, universe_variance=universe_variance)
        for part in table.partition(num_parts)
    ]
    return finalize_partial(
        merge_partials(partials),
        node,
        compute_ci=compute_ci,
        universe_rescale=universe_rescale,
        universe_variance=universe_variance,
    )


def assert_tables_match(serial: Table, merged: Table, sort_keys):
    assert set(serial.column_names) == set(merged.column_names)
    assert serial.num_rows == merged.num_rows
    so = np.lexsort([serial.column(k) for k in reversed(sort_keys)]) if sort_keys else slice(None)
    mo = np.lexsort([merged.column(k) for k in reversed(sort_keys)]) if sort_keys else slice(None)
    for c in serial.column_names:
        np.testing.assert_allclose(
            serial.column(c)[so], merged.column(c)[mo],
            rtol=1e-9, atol=1e-12, equal_nan=True, err_msg=c,
        )


@st.composite
def lineage_payloads(draw):
    """1-5 partition payloads over 1-4 lineage columns: sorted runs or not,
    with outer-join ``-1`` fills, duplicate lineage tuples (ties keep
    concatenation order) and, sometimes, per-column spans whose product
    passes 2^62 so ``pack_keys`` has to re-densify."""
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_lineage = draw(st.integers(1, 4))
    wide = draw(st.booleans())
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 40))
        high = 2**40 if wide else draw(st.sampled_from((3, 50)))
        lineage = [gen.integers(0, high, n) for _ in range(num_lineage)]
        if n and draw(st.booleans()):
            fills = gen.random(n) < 0.2
            lineage[-1] = np.where(fills, -1, lineage[-1])
        columns = {rowid_column_name(i): arr.astype(np.int64) for i, arr in enumerate(lineage)}
        columns["x"] = gen.normal(size=n)
        table = Table("t", columns)
        if draw(st.booleans()):
            table = table.sort_by(table.lineage_column_names())
        tables.append(table)
    return tables


class TestPartialAggregate:
    def test_grouped_matches_serial(self):
        t = weighted_table()
        node = agg_node(("g",))
        serial = execute_aggregate(t, ("g",), ALL_AGGS)
        merged = via_partials(t, node)
        assert_tables_match(serial, merged, ["g"])

    def test_grouped_with_ci_matches_serial(self):
        t = weighted_table()
        node = agg_node(("g",))
        serial = execute_aggregate(t, ("g",), ALL_AGGS, compute_ci=True)
        merged = via_partials(t, node, compute_ci=True)
        assert_tables_match(serial, merged, ["g"])

    def test_scalar_matches_serial(self):
        t = weighted_table()
        node = agg_node(())
        serial = execute_aggregate(t, (), ALL_AGGS, compute_ci=True)
        merged = via_partials(t, node, compute_ci=True)
        assert_tables_match(serial, merged, [])

    def test_empty_input_scalar_nan_semantics(self):
        t = weighted_table().head(0)
        node = agg_node(())
        serial = execute_aggregate(t, (), ALL_AGGS)
        merged = via_partials(t, node, num_parts=2)
        assert_tables_match(serial, merged, [])

    def test_unweighted_input(self):
        w = weighted_table()
        t = Table("t", {c: w.column(c) for c in ("g", "k", "x")})
        assert not t.has_weights()
        node = agg_node(("g",))
        serial = execute_aggregate(t, ("g",), ALL_AGGS)
        merged = via_partials(t, node)
        assert_tables_match(serial, merged, ["g"])

    def test_universe_variance_matches_serial(self):
        # Universe sampling at p couples rows that share a key value; the
        # partial state must keep per-(group, key) inner sums so the CI
        # survives partitions splitting a key.
        p = 0.25
        t = weighted_table()
        t = t.with_columns({WEIGHT_COLUMN: np.full(t.num_rows, 1.0 / p)})
        aggs = (sum_(col("x"), "s"), count("n"))
        node = agg_node(("g",), aggs)
        uv = (("k",), p)
        serial = execute_aggregate(t, ("g",), aggs, compute_ci=True, universe_variance=uv)
        merged = via_partials(t, node, compute_ci=True, universe_variance=uv)
        assert_tables_match(serial, merged, ["g"])

    def test_count_distinct_rescale_matches_serial(self):
        p = 0.2
        t = weighted_table()
        aggs = (count_distinct(col("k"), "d"),)
        node = agg_node(("g",), aggs)
        rescale = {"d": 1.0 / p}
        serial = execute_aggregate(t, ("g",), aggs, compute_ci=True, universe_rescale=rescale)
        merged = via_partials(t, node, compute_ci=True, universe_rescale=rescale)
        assert_tables_match(serial, merged, ["g"])

    def test_group_order_is_first_appearance(self):
        t = Table("t", {"g": np.array([3, 1, 3, 2]), "k": np.zeros(4, dtype=np.int64),
                        "x": np.ones(4)})
        node = agg_node(("g",), (count("n"),))
        merged = via_partials(t, node, num_parts=1)
        np.testing.assert_array_equal(merged.column("g"), [3, 1, 2])


class TestSketchFolds:
    def test_kmv_fold_equals_single_pass(self):
        gen = np.random.default_rng(4)
        values = gen.integers(0, 5_000, 20_000)
        whole = KMVCounter(k=256)
        whole.add_many(values.tolist())
        parts = []
        for chunk in np.array_split(values, 4):
            c = KMVCounter(k=256)
            c.add_many(chunk.tolist())
            parts.append(c)
        assert merge_kmv(parts).estimate() == whole.estimate()

    def test_heavy_hitter_fold_finds_the_heavy_value(self):
        gen = np.random.default_rng(4)
        values = np.concatenate([np.full(5_000, 77), gen.integers(100, 10_000, 15_000)])
        gen.shuffle(values)
        parts = []
        for chunk in np.array_split(values, 4):
            c = LossyCounter(tau=0.001, support=0.01)
            for v in chunk.tolist():
                c.add(v)
            parts.append(c)
        merged = merge_heavy_hitters(parts)
        assert merged.items_seen == len(values)
        assert 77 in dict(merged.heavy_hitters())
        assert merged.estimate(77) >= 5_000 - int(merged.tau * len(values)) * 4


class TestMergeRows:
    def test_restores_exact_serial_order(self):
        t = weighted_table().with_columns(
            {rowid_column_name(0): np.arange(4_000, dtype=np.int64)}
        )
        parts = t.partition(4)
        merged = merge_rows(list(reversed(parts)))  # arrival order scrambled
        for c in t.column_names:
            np.testing.assert_array_equal(merged.column(c), t.column(c))

    def test_without_lineage_is_plain_concat(self):
        t = weighted_table(n=30)
        merged = merge_rows(t.partition(3))
        assert merged.num_rows == 30

    def test_empty_input_rejected(self):
        with pytest.raises(PlanError):
            merge_rows([])

    def test_single_sorted_payload_is_not_copied(self):
        t = weighted_table(n=50).with_columns(
            {rowid_column_name(0): np.arange(50, dtype=np.int64)}
        )
        assert merge_rows([t]) is t

    @settings(max_examples=60, deadline=None)
    @given(tables=lineage_payloads())
    def test_equals_concat_then_lexsort(self, tables):
        # The merge this one replaced, kept here as the reference: one
        # lexsort of the concatenation on the lineage columns.
        reference = Table.concat(tables)
        reference = reference.sort_by(reference.lineage_column_names())
        merged = merge_rows(tables)
        assert merged.column_names == reference.column_names
        for c in reference.column_names:
            np.testing.assert_array_equal(merged.column(c), reference.column(c), err_msg=c)
