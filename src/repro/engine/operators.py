"""Vectorized physical operator implementations.

These functions execute one logical operator over columnar tables. They are
deliberately stand-alone (table in, table out) so both the executor and the
tests can drive them directly.

The aggregation operator implements the paper's Table 8 estimator rewrites
natively: when the input carries a weight column, every aggregate becomes
its Horvitz-Thompson estimator, and (optionally) each SUM-like aggregate
gains a confidence-interval column computed in the same pass (Section 4.3,
Proposition 2: one effective pass for estimate and error).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.aggregates import AggKind, AggSpec
from repro.algebra.expressions import Expr
from repro.engine.keys import dense_span, group_codes, pack_keys
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.errors import PlanError, SchemaError

__all__ = [
    "group_codes",
    "execute_select",
    "execute_project",
    "execute_join",
    "execute_aggregate",
    "execute_orderby",
    "execute_limit",
    "execute_union_all",
    "CI_SUFFIX",
    "Z_95",
]

#: Suffix for the optional confidence-interval column appended per aggregate.
CI_SUFFIX = "__ci"

#: Central-limit z-score for the 95% confidence intervals Quickr reports.
Z_95 = 1.96


def execute_select(table: Table, predicate: Expr, drop: Sequence[str] = ()) -> Table:
    """Filter rows; ``drop`` names input columns only the predicate read,
    shed (zero-copy) before the gather instead of carried through it."""
    mask = np.asarray(predicate.evaluate(table), dtype=bool)
    if drop:
        table = table.drop_columns(drop)
    if mask.all():
        # Nothing filtered: the input passes through untouched instead of
        # being gathered into a same-sized copy.
        return table
    return table.take(mask)


def execute_project(table: Table, mapping: Dict[str, Expr]) -> Table:
    out = {name: np.asarray(expr.evaluate(table)) for name, expr in mapping.items()}
    if table.has_weights():
        out[WEIGHT_COLUMN] = table.column(WEIGHT_COLUMN)
    return Table(table.name, out)


def _join_keys(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Packed keys of both join inputs in one code space ``[0, span)``."""
    n_left = len(left_keys[0])
    combined = []
    for l_col, r_col in zip(left_keys, right_keys):
        common = np.result_type(l_col.dtype, r_col.dtype)
        combined.append(
            np.concatenate([l_col.astype(common, copy=False), r_col.astype(common, copy=False)])
        )
    key, span, nan_rows = pack_keys(combined)
    if nan_rows is not None:
        # A NaN key joins nothing: park each side's on a code the other lacks.
        key[nan_rows] = span + (np.flatnonzero(nan_rows) >= n_left)
        span += 2
    return key[:n_left], key[n_left:], span


def _match_pairs(
    left_key: np.ndarray, right_key: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All (left_index, right_index) pairs with equal keys (many-to-many),
    in left-row order and, per left row, right-row order."""
    order = np.argsort(right_key, kind="stable")
    if dense_span(span, len(left_key) + len(right_key)):
        per_key = np.bincount(right_key, minlength=span)
        lo = (np.cumsum(per_key) - per_key)[left_key]
        counts = per_key[left_key]
    else:
        sorted_right = right_key[order]
        lo = np.searchsorted(sorted_right, left_key, side="left")
        counts = np.searchsorted(sorted_right, left_key, side="right") - lo
    left_idx = np.repeat(np.arange(len(left_key)), counts)
    if len(left_idx) == 0:
        return left_idx, left_idx.copy()
    # Offsets into the sorted right side, expanded per match.
    starts = np.repeat(lo, counts)
    within = np.arange(len(left_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + within]
    return left_idx, right_idx


def _padded(values: np.ndarray, fill_rows: int, fill=None) -> np.ndarray:
    """``values`` followed by ``fill_rows`` outer-join fill rows: ``fill``
    when given, else NaN for numeric columns (which turn float64, as an
    outer join's nullable side always has) and ``""`` for string kinds."""
    if not fill_rows:
        return values
    if fill is None:
        if values.dtype.kind in "US":
            fill = ""
        else:
            values, fill = values.astype(np.float64), np.nan
    return np.concatenate([values, np.full(fill_rows, fill, dtype=values.dtype)])


def execute_join(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    columns: Optional[Sequence[str]] = None,
) -> Table:
    """Hash equi-join. Weights multiply; a side without weights counts as 1.

    ``columns`` names the data columns the output carries (default: every
    data column of both inputs, left then right). The keys are read from
    the inputs either way and copied only when listed; lineage and weight
    columns always ride along.
    """
    if how not in ("inner", "left", "right"):
        raise PlanError(f"unsupported join type {how!r}")
    left_idx, right_idx = _match_pairs(
        *_join_keys([left.column(k) for k in left_keys], [right.column(k) for k in right_keys])
    )
    # Outer joins append the outer side's unmatched rows; the inner side's
    # columns are padded with fill values for them.
    left_fill = right_fill = 0
    if how != "inner":
        outer, outer_idx = (left, left_idx) if how == "left" else (right, right_idx)
        matched = np.zeros(outer.num_rows, dtype=bool)
        matched[outer_idx] = True
        missing = np.flatnonzero(~matched)
        if how == "left":
            left_idx, right_fill = np.concatenate([left_idx, missing]), len(missing)
        else:
            right_idx, left_fill = np.concatenate([right_idx, missing]), len(missing)

    def gather(name: str, fill=None) -> np.ndarray:
        if left.has_column(name):
            return _padded(left.column(name)[left_idx], left_fill, fill)
        return _padded(right.column(name)[right_idx], right_fill, fill)

    if columns is None:
        columns = left.data_column_names() + right.data_column_names()
    out: Dict[str, np.ndarray] = {name: gather(name) for name in columns}

    # Lineage rides along: an output row's identity is the pair of its input
    # rows' identities. Names are disjoint by construction (one per scan).
    left_lineage, right_lineage = left.lineage_column_names(), right.lineage_column_names()
    clash = set(left_lineage) & set(right_lineage)
    if clash:
        raise SchemaError(
            f"join inputs share lineage columns {sorted(clash)}; a scan node "
            "appears on both sides of the join"
        )
    for name in left_lineage + right_lineage:
        # Unmatched rows have no partner; -1 marks the absent lineage.
        out[name] = gather(name, fill=-1)

    if left.has_weights() or right.has_weights():
        # Outer-join fill rows keep the outer row's weight (partner weight 1).
        lw = _padded(left.weights()[left_idx], left_fill, 1.0) if left.has_weights() else 1.0
        rw = _padded(right.weights()[right_idx], right_fill, 1.0) if right.has_weights() else 1.0
        out[WEIGHT_COLUMN] = np.asarray(lw * rw, dtype=np.float64)
    return Table(f"{left.name}_join_{right.name}", out)


def _grouped_sum(codes: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    return np.bincount(codes, weights=values, minlength=num_groups)


def _grouped_min(codes: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    out = np.full(num_groups, np.inf)
    np.minimum.at(out, codes, values)
    return out


def _grouped_max(codes: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    out = np.full(num_groups, -np.inf)
    np.maximum.at(out, codes, values)
    return out


def _grouped_count_distinct(codes: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    _, pair_first, _ = group_codes([codes, values])
    return np.bincount(codes[pair_first], minlength=num_groups).astype(np.float64)


def _per_row_contribution(agg: AggSpec, table: Table) -> np.ndarray:
    """The raw (unweighted) per-row value y_i such that the true aggregate is
    sum over all rows of y_i. Used for both estimate and variance."""
    if agg.kind is AggKind.COUNT:
        return np.ones(table.num_rows)
    if agg.kind is AggKind.COUNT_IF:
        return np.asarray(agg.cond.evaluate(table), dtype=np.float64)
    values = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
    if agg.kind is AggKind.SUM_IF:
        return values * np.asarray(agg.cond.evaluate(table), dtype=np.float64)
    return values


def _variance_independent(codes, num_groups, weights, y) -> np.ndarray:
    """HT variance for independent per-row inclusion (uniform/distinct):
    Var-hat = sum_i (w_i^2 - w_i) * y_i^2, grouped."""
    return _grouped_sum(codes, num_groups, (weights * weights - weights) * y * y)


def _variance_universe(codes, num_groups, universe_values, p, y) -> np.ndarray:
    """HT variance under universe sampling (Section B.1): rows sharing a key
    subspace value are perfectly correlated, so
    Var-hat = (1 - p)/p^2 * sum over key values g of (sum_{i in g} y_i)^2."""
    pair_codes, pair_first, pair_groups = group_codes([codes, universe_values])
    sums = _grouped_sum(pair_codes, pair_groups, y)
    # A pair's first row maps it back to its group.
    return _grouped_sum(codes[pair_first], num_groups, (1.0 - p) / (p * p) * sums * sums)


def execute_aggregate(
    table: Table,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    compute_ci: bool = False,
    universe_rescale: Optional[Dict[str, float]] = None,
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
) -> Table:
    """Grouped aggregation with Horvitz-Thompson estimation.

    If the input has no weight column this computes exact answers. With
    weights, each aggregate is rewritten per the paper's Table 8:

    ====================  =============================================
    true value            estimate over the sample
    ====================  =============================================
    SUM(x)                SUM(w * x)
    COUNT(*)              SUM(w)
    AVG(x)                SUM(w * x) / SUM(w)
    SUM(IF(c, x))         SUM(IF(c, w * x))
    COUNT(IF(c))          SUM(IF(c, w))
    COUNT(DISTINCT x)     COUNT(DISTINCT x) * (universe on x ? 1/p : 1)
    ====================  =============================================

    ``universe_rescale`` maps aggregate aliases to the 1/p factor for
    COUNT DISTINCT under universe sampling. ``universe_variance`` is
    ``(universe column names, p)`` when the dominant sampler for this
    aggregation is a universe sampler — variance then accounts for the
    perfect correlation of rows within a key-subspace value.
    """
    universe_rescale = universe_rescale or {}
    weighted = table.has_weights()
    weights = table.weights()

    if group_by:
        key_arrays = [table.column(k) for k in group_by]
        codes, first_index, num_groups = group_codes(key_arrays)
        # Emit groups in order of first appearance in the input.
        order = np.argsort(first_index)
        remap = np.empty(num_groups, dtype=np.int64)
        remap[order] = np.arange(num_groups)
        codes = remap[codes]
        out = {k: table.column(k)[first_index[order]] for k in group_by}
    else:
        codes = np.zeros(table.num_rows, dtype=np.int64)
        num_groups = 1
        out = {}

    if table.num_rows == 0 and not group_by:
        # Scalar aggregates over empty input: zero counts/sums, NaN averages.
        for agg in aggs:
            if agg.kind in (AggKind.AVG, AggKind.MIN, AggKind.MAX):
                out[agg.alias] = np.asarray([np.nan])
            else:
                out[agg.alias] = np.asarray([0.0])
            if compute_ci:
                out[agg.alias + CI_SUFFIX] = np.asarray([0.0])
        return Table(f"{table.name}_agg", out)

    universe_values = None
    universe_p = None
    if universe_variance is not None:
        ucols, universe_p = universe_variance
        present = [c for c in ucols if table.has_column(c)]
        if present:
            ucodes, _, _ = group_codes([table.column(c) for c in present])
            universe_values = ucodes

    weight_sum = _grouped_sum(codes, num_groups, weights)

    for agg in aggs:
        variance: Optional[np.ndarray] = None
        if agg.kind in (AggKind.SUM, AggKind.COUNT, AggKind.SUM_IF, AggKind.COUNT_IF):
            y = _per_row_contribution(agg, table)
            estimate = _grouped_sum(codes, num_groups, weights * y)
            if compute_ci and weighted:
                if universe_values is not None and universe_p is not None:
                    variance = _variance_universe(codes, num_groups, universe_values, universe_p, y)
                else:
                    variance = _variance_independent(codes, num_groups, weights, y)
        elif agg.kind is AggKind.AVG:
            y = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            numerator = _grouped_sum(codes, num_groups, weights * y)
            with np.errstate(invalid="ignore", divide="ignore"):
                estimate = np.where(weight_sum > 0, numerator / weight_sum, np.nan)
            if compute_ci and weighted:
                # Delta-method variance of the ratio estimator.
                var_num = _variance_independent(codes, num_groups, weights, y)
                var_den = _variance_independent(codes, num_groups, weights, np.ones(table.num_rows))
                cov = _grouped_sum(codes, num_groups, (weights * weights - weights) * y)
                with np.errstate(invalid="ignore", divide="ignore"):
                    ratio = estimate
                    variance = np.where(
                        weight_sum > 0,
                        (var_num - 2 * ratio * cov + ratio * ratio * var_den) / (weight_sum * weight_sum),
                        np.nan,
                    )
                variance = np.maximum(variance, 0.0)
        elif agg.kind is AggKind.MIN:
            estimate = _grouped_min(codes, num_groups, np.asarray(agg.expr.evaluate(table), dtype=np.float64))
        elif agg.kind is AggKind.MAX:
            estimate = _grouped_max(codes, num_groups, np.asarray(agg.expr.evaluate(table), dtype=np.float64))
        elif agg.kind is AggKind.COUNT_DISTINCT:
            values = agg.expr.evaluate(table)
            raw = _grouped_count_distinct(codes, num_groups, np.asarray(values))
            factor = universe_rescale.get(agg.alias, 1.0)
            estimate = raw * factor
            if compute_ci and weighted and factor > 1.0:
                p = 1.0 / factor
                variance = raw * (1.0 - p) / (p * p)
        else:
            raise PlanError(f"unknown aggregate kind {agg.kind}")
        out[agg.alias] = estimate
        if compute_ci:
            if variance is None:
                variance = np.zeros(num_groups)
            out[agg.alias + CI_SUFFIX] = Z_95 * np.sqrt(np.maximum(variance, 0.0))

    return Table(f"{table.name}_agg", out)


def execute_orderby(table: Table, keys: Sequence[str], descending: bool) -> Table:
    return table.sort_by(keys, descending)


def execute_limit(table: Table, n: int) -> Table:
    return table.head(n)


def execute_union_all(tables: Sequence[Table]) -> Table:
    aligned = []
    any_weights = any(t.has_weights() for t in tables)
    for t in tables:
        # Lineage does not survive a union: children carry lineage from
        # different scans, so there is no common identity space. Samplers
        # above a union fall back to positional randomness.
        t = t.drop_lineage()
        if any_weights and not t.has_weights():
            t = t.with_columns({WEIGHT_COLUMN: np.ones(t.num_rows)})
        aligned.append(t)
    if len(aligned) == 1:
        # Degenerate union: concat would copy every column of the single
        # input just to glue it to nothing.
        return aligned[0]
    return Table.concat(aligned, name=aligned[0].name)
