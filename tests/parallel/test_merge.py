"""Unit tests for the partition-output merge layer and the one aggregate
estimator behind it.

The contracts under test: ``merge_rows`` reproduces the serial row stream
exactly; and ``partial_aggregate -> merge_partials -> finalize_partial``
(:mod:`repro.engine.aggregate`) gives, for one input (the serial
``execute_aggregate``) and for any split into several, the answer of a
row-at-a-time Python reference kept here — estimates, confidence
intervals, the AVG delta method, universe variance and COUNT DISTINCT
rescaling — and of the standalone Horvitz-Thompson forms kept here too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import (
    AggKind,
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
from repro.engine.aggregate import (
    CI_SUFFIX,
    Z_95,
    Estimation,
    finalize_partial,
    merge_partials,
    partial_aggregate,
)
from repro.engine.operators import execute_aggregate
from repro.engine.partitions import Partitioner
from repro.engine.table import WEIGHT_COLUMN, Table, rowid_column_name
from repro.errors import PlanError
from repro.parallel import merge_rows


def weighted_table(n=4_000, seed=2):
    gen = np.random.default_rng(seed)
    return Table(
        "t",
        {
            "g": gen.integers(0, 9, n),
            "h": gen.integers(0, 3, n),
            "k": gen.integers(0, 40, n),
            "x": gen.normal(5.0, 2.0, n),
            WEIGHT_COLUMN: gen.choice([2.0, 4.0, 8.0], n),
        },
    )


def unweighted(table):
    return Table(table.name, {c: table.column(c) for c in table.data_column_names()})


#: All eight aggregate kinds.
ALL_AGGS = (
    sum_(col("x"), "s"),
    count("n"),
    avg(col("x"), "a"),
    min_(col("x"), "mn"),
    max_(col("x"), "mx"),
    count_distinct(col("k"), "d"),
    sum_if(col("x"), col("k") > 20, "si"),
    count_if(col("k") > 20, "ci"),
)


def split(table, cuts):
    """Contiguous parts of ``table`` between sorted cut points (equal cuts
    give empty parts), so concatenating the parts gives the table back."""
    bounds = [0, *cuts, table.num_rows]
    return [table.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def via_partials(table, group_by, aggs=ALL_AGGS, num_parts=3, cuts=None, **how):
    """The answer through per-part states: round-robin parts by default
    (group order then differs from serial), contiguous ones with ``cuts``."""
    how = Estimation(**how)
    parts = Partitioner(num_parts).split(table) if cuts is None else split(table, cuts)
    partials = [partial_aggregate(part, group_by, aggs, how) for part in parts]
    return finalize_partial(merge_partials(partials), aggs, how)


def ht_estimate(values, weights):
    """Proposition 3's unbiased estimate of the population sum."""
    return float(np.sum(values * weights))


def ht_variance_independent(values, weights):
    """Its variance when rows were kept independently (uniform or
    distinct samplers): sum_i (w_i^2 - w_i) y_i^2."""
    return float(np.sum((weights * weights - weights) * values * values))


def ht_variance_universe(values, key_codes, p):
    """Its variance under universe sampling: rows sharing a key value are
    perfectly correlated, so (1-p)/p^2 * sum_g (sum_{i in g} y_i)^2."""
    _, inverse = np.unique(key_codes, return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    return float((1.0 - p) / (p * p) * np.sum(sums * sums))


def naive_aggregate(table, group_by, aggs, compute_ci=False,
                    universe_rescale=None, universe_variance=None):
    """Row-at-a-time reference for the estimator: Python accumulators per
    group, groups in order of first appearance. Returns column -> list."""
    n = table.num_rows
    weighted = table.has_weights()
    weights = [float(w) for w in table.weights()]
    with_variance = compute_ci and weighted
    key_rows = list(zip(*(table.column(k).tolist() for k in group_by))) if group_by else [()] * n
    universe = None
    if with_variance and universe_variance is not None:
        universe = list(zip(*(table.column(c).tolist() for c in universe_variance[0])))
    values = {a.alias: a.expr.evaluate(table).tolist() for a in aggs if a.expr is not None}
    conds = {a.alias: a.cond.evaluate(table).tolist() for a in aggs if a.cond is not None}

    groups = {} if group_by else {(): []}
    for i, key in enumerate(key_rows):
        groups.setdefault(key, []).append(i)

    out = {k: [key[j] for key in groups] for j, k in enumerate(group_by)}
    for agg in aggs:
        estimates, variances = [], []
        for rows in groups.values():
            variance = 0.0
            if agg.kind in (AggKind.SUM, AggKind.COUNT, AggKind.SUM_IF, AggKind.COUNT_IF):
                estimate, inner = 0.0, {}
                for i in rows:
                    y = 1.0 if agg.expr is None else values[agg.alias][i]
                    if agg.cond is not None:
                        y = y * float(conds[agg.alias][i])
                    w = weights[i]
                    estimate += w * y
                    if universe is not None:
                        inner[universe[i]] = inner.get(universe[i], 0.0) + y
                    elif with_variance:
                        variance += (w * w - w) * y * y
                if universe is not None:
                    p = universe_variance[1]
                    variance = (1.0 - p) / (p * p) * sum(t * t for t in inner.values())
            elif agg.kind is AggKind.AVG:
                num = den = var_num = cov = var_den = 0.0
                for i in rows:
                    w, y = weights[i], values[agg.alias][i]
                    num, den = num + w * y, den + w
                    var_num += (w * w - w) * y * y
                    cov += (w * w - w) * y
                    var_den += w * w - w
                estimate = num / den if rows else math.nan
                if rows and with_variance:
                    variance = var_num - 2 * estimate * cov + estimate * estimate * var_den
                    variance /= den * den
            elif agg.kind in (AggKind.MIN, AggKind.MAX):
                pick = min if agg.kind is AggKind.MIN else max
                estimate = pick(values[agg.alias][i] for i in rows) if rows else math.nan
            else:
                assert agg.kind is AggKind.COUNT_DISTINCT
                raw = float(len({values[agg.alias][i] for i in rows}))
                factor = (universe_rescale or {}).get(agg.alias, 1.0)
                estimate = raw * factor
                if with_variance and factor > 1.0:
                    p = 1.0 / factor
                    variance = raw * (1.0 - p) / (p * p)
            estimates.append(estimate)
            variances.append(variance)
        out[agg.alias] = estimates
        if compute_ci:
            out[agg.alias + CI_SUFFIX] = [Z_95 * math.sqrt(max(v, 0.0)) for v in variances]
    return out


def assert_matches_reference(table: Table, reference: dict, sort_keys=()):
    """``table`` equals the naive reference, in its group order unless
    ``sort_keys`` says to compare as sets of groups."""
    assert list(table.column_names) == list(reference)
    expected = {c: np.asarray(v, dtype=np.float64) for c, v in reference.items()}
    assert table.num_rows == len(next(iter(expected.values())))
    order = expect_order = slice(None)
    if sort_keys:
        order = np.lexsort([table.column(k) for k in reversed(sort_keys)])
        expect_order = np.lexsort([expected[k] for k in reversed(sort_keys)])
    for c in table.column_names:
        np.testing.assert_allclose(
            table.column(c)[order], expected[c][expect_order],
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


UNIVERSE_P = 0.25
#: Universe sampling on ``k`` at p: correlated variance for the SUM-likes,
#: 1/p rescaling for COUNT DISTINCT over the same column.
UNIVERSE = dict(universe_variance=(("k",), UNIVERSE_P), universe_rescale={"d": 1.0 / UNIVERSE_P})


def check_against_reference(table, group_by, aggs=ALL_AGGS, **how):
    """One input (the serial operator), round-robin parts and contiguous
    parts all give the row-at-a-time answer."""
    reference = naive_aggregate(table, group_by, aggs, **how)
    assert_matches_reference(execute_aggregate(table, group_by, aggs, **how), reference)
    assert_matches_reference(via_partials(table, group_by, aggs, **how), reference, group_by)
    cuts = [0, table.num_rows // 3, table.num_rows // 3, table.num_rows]
    assert_matches_reference(via_partials(table, group_by, aggs, cuts=cuts, **how), reference)


class TestPartialAggregate:
    def test_grouped_matches_serial(self):
        check_against_reference(weighted_table(), ("g",))

    def test_grouped_with_ci_matches_serial(self):
        check_against_reference(weighted_table(), ("g",), compute_ci=True)

    def test_scalar_matches_serial(self):
        check_against_reference(weighted_table(), (), compute_ci=True)

    def test_empty_input_scalar_nan_semantics(self):
        t = weighted_table().head(0)
        check_against_reference(t, ())
        out = execute_aggregate(t, (), ALL_AGGS, compute_ci=True)
        for alias in ("a", "mn", "mx"):
            assert np.isnan(out.column(alias)).all()
        for alias in ("s", "n", "d", "si", "ci"):
            assert out.column(alias).tolist() == [0.0]
            assert out.column(alias + CI_SUFFIX).tolist() == [0.0]

    def test_unweighted_input(self):
        t = unweighted(weighted_table())
        assert not t.has_weights()
        check_against_reference(t, ("g",))

    def test_universe_variance_matches_serial(self):
        # Universe sampling at p couples rows that share a key value; the
        # state must keep per-(group, key) inner sums so the CI survives
        # parts splitting a key.
        t = weighted_table()
        t = t.with_columns({WEIGHT_COLUMN: np.full(t.num_rows, 1.0 / UNIVERSE_P)})
        check_against_reference(
            t, ("g",), (sum_(col("x"), "s"), count("n")),
            compute_ci=True, universe_variance=UNIVERSE["universe_variance"],
        )

    def test_count_distinct_rescale_matches_serial(self):
        check_against_reference(
            weighted_table(), ("g",), (count_distinct(col("k"), "d"),),
            compute_ci=True, universe_rescale={"d": 5.0},
        )

    def test_group_order_is_first_appearance(self):
        t = Table("t", {"g": np.array([3, 1, 3, 2]), "k": np.zeros(4, dtype=np.int64),
                        "x": np.ones(4)})
        merged = via_partials(t, ("g",), (count("n"),), num_parts=1)
        np.testing.assert_array_equal(merged.column("g"), [3, 1, 2])
        # Across parts: a group is placed where the first part holding it
        # first shows it.
        merged = via_partials(t, ("g",), (count("n"),), cuts=[1, 1, 2])
        np.testing.assert_array_equal(merged.column("g"), [3, 1, 2])
        np.testing.assert_array_equal(merged.column("n"), [2, 1, 1])

    @pytest.mark.parametrize("rows", [0, 400])
    @pytest.mark.parametrize("group_by", [(), ("g",), ("g", "h")])
    @pytest.mark.parametrize("universe", [{}, UNIVERSE], ids=["independent", "universe"])
    @pytest.mark.parametrize("compute_ci", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_kind_matches_the_row_loop(self, weighted, compute_ci, universe, group_by, rows):
        t = weighted_table(n=rows, seed=rows + len(group_by))
        check_against_reference(
            t if weighted else unweighted(t), group_by, compute_ci=compute_ci, **universe
        )

    @pytest.mark.parametrize("parts", [1, 4])
    def test_matches_the_standalone_horvitz_thompson_forms(self, parts):
        t = weighted_table(n=900)
        aggs = (sum_(col("x"), "s"), count("n"), sum_if(col("x"), col("k") > 20, "si"))
        x, k = t.column("x"), t.column("k")
        y = {"s": x, "n": np.ones(t.num_rows), "si": x * (k > 20)}
        independent = via_partials(t, ("g",), aggs, num_parts=parts, compute_ci=True)
        correlated = via_partials(
            t, ("g",), aggs, num_parts=parts,
            compute_ci=True, universe_variance=UNIVERSE["universe_variance"],
        )
        for row, g in enumerate(independent.column("g")):
            assert correlated.column("g")[row] == g
            member = t.column("g") == g
            w = t.weights()[member]
            for alias, values in y.items():
                v = values[member]
                assert independent.column(alias)[row] == pytest.approx(ht_estimate(v, w))
                half = independent.column(alias + CI_SUFFIX)[row]
                assert (half / Z_95) ** 2 == pytest.approx(ht_variance_independent(v, w))
                half = correlated.column(alias + CI_SUFFIX)[row]
                assert (half / Z_95) ** 2 == pytest.approx(
                    ht_variance_universe(v, k[member], UNIVERSE_P)
                )

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(0, 60),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=5),
        group_by=st.sampled_from([(), ("g",), ("g", "h")]),
        weighted=st.booleans(),
        universe=st.sampled_from([{}, UNIVERSE]),
        decimal=st.booleans(),
    )
    def test_any_split_merges_to_the_one_part_answer(
        self, seed, rows, cuts, group_by, weighted, universe, decimal
    ):
        # Contiguous parts — some empty, some missing groups — so the
        # merged group order is the one-part order. Values are positive:
        # the relative bound is on reassociated sums, not on cancellation.
        # ``decimal`` declares ``x`` a cents column: its unweighted sums
        # are then exact, in any split.
        t = weighted_table(n=rows, seed=seed)
        x = np.abs(t.column("x")) + 1.0
        t = t.with_columns({"x": np.round(x, 2) if decimal else x})
        t = t if weighted else unweighted(t)
        how = dict(compute_ci=True, **universe)
        if decimal:
            how["decimals"] = {"s": 2, "a": 2, "si": 2}
        one = execute_aggregate(t, group_by, ALL_AGGS, **how)
        many = via_partials(t, group_by, cuts=sorted(int(c * rows) for c in cuts), **how)
        assert one.column_names == many.column_names
        bit_equal = {*group_by, "mn", "mx", "d", "mn__ci", "mx__ci", "d__ci"}
        if not weighted:
            bit_equal |= {"n", "ci"}
            if decimal:
                bit_equal |= {"s", "a", "si"}
        for c in one.column_names:
            if c in bit_equal:
                np.testing.assert_array_equal(many.column(c), one.column(c), err_msg=c)
            elif c == "a__ci":
                # The delta-method variance subtracts sums each of the order
                # of a² (weights <= 8), so reassociation moves it by 1e-16
                # of *those*, not of what is left after they cancel.
                np.testing.assert_allclose(
                    many.column(c) ** 2, one.column(c) ** 2, rtol=1e-12,
                    atol=1e-12 * np.nanmax((Z_95 * one.column("a")) ** 2, initial=0.0), err_msg=c,
                )
            else:
                np.testing.assert_allclose(
                    many.column(c), one.column(c), rtol=1e-12, atol=0.0, equal_nan=True, err_msg=c
                )


class TestMergeRows:
    def test_restores_exact_serial_order(self):
        t = weighted_table().with_columns(
            {rowid_column_name(0): np.arange(4_000, dtype=np.int64)}
        )
        parts = Partitioner(4).split(t)
        merged = merge_rows(list(reversed(parts)))  # arrival order scrambled
        for c in t.column_names:
            np.testing.assert_array_equal(merged.column(c), t.column(c))

    def test_without_lineage_is_rejected(self):
        # Several partitions' rows and nothing to order them by: a
        # concatenation would be one arbitrary order (the q10/q24 drift).
        t = weighted_table(n=30)
        with pytest.raises(PlanError, match="no lineage"):
            merge_rows(Partitioner(3).split(t))
        # One partition with rows is already in order.
        only = Partitioner(3).split(t)[0]
        assert merge_rows([only, only.take(np.asarray([], dtype=np.int64))]).num_rows == only.num_rows

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

    @settings(max_examples=60, deadline=None)
    @given(tables=lineage_payloads(), data=st.data())
    def test_named_columns_are_the_full_merge_narrowed(self, tables, data):
        """Lineage orders the rows either way; only the named columns and
        the weight column are gathered into that order."""
        tables = [t.with_columns({WEIGHT_COLUMN: np.arange(t.num_rows) + 1.0}) for t in tables]
        lineage = list(tables[0].lineage_column_names())
        named = data.draw(st.lists(st.sampled_from(["x", *lineage]), unique=True))
        full, narrow = merge_rows(tables), merge_rows(tables, columns=named)
        assert narrow.column_names == tuple(
            c for c in full.column_names if c in named or c == WEIGHT_COLUMN
        )
        for c in narrow.column_names:
            np.testing.assert_array_equal(narrow.column(c), full.column(c), err_msg=c)
