"""Vectorized physical operator implementations.

These functions execute one logical operator over columnar tables. They are
deliberately stand-alone (table in, table out) so both the executor and the
tests can drive them directly.

Aggregation is :mod:`repro.engine.aggregate`'s partial -> finalize over one
input: when it carries a weight column, every aggregate becomes its
Horvitz-Thompson estimator (the paper's Table 8) and, optionally, gains a
confidence-interval column computed in the same pass.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import Col, Expr
from repro.engine.aggregate import (
    CI_SUFFIX,
    Z_95,
    Estimation,
    finalize_partial,
    partial_aggregate,
)
from repro.engine.keys import dense_span, pack_keys, same_dictionary, stable_argsort
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.errors import PlanError, SchemaError

__all__ = [
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


def execute_select(table: Table, predicate: Expr, drop: Sequence[str] = ()) -> Table:
    """Filter rows; ``drop`` names input columns only the predicate read,
    shed (zero-copy) before the gather instead of carried through it."""
    rows = np.flatnonzero(np.asarray(predicate.evaluate(table), dtype=bool))
    if drop:
        table = table.drop_columns(drop)
    if len(rows) == table.num_rows:
        # Nothing filtered: the input passes through untouched instead of
        # being gathered into a same-sized copy.
        return table
    return table.take(rows)


def execute_project(table: Table, mapping: Dict[str, Expr]) -> Table:
    """A bare column reference moves the stored column (codes and their
    dictionary, for a coded one); anything computed is evaluated on values."""
    out, dictionaries = {}, {}
    for name, expr in mapping.items():
        if isinstance(expr, Col):
            out[name] = table.key_column(expr.name)
            if table.dictionary(expr.name) is not None:
                dictionaries[name] = table.dictionary(expr.name)
        else:
            out[name] = np.asarray(expr.evaluate(table))
    if table.has_weights():
        out[WEIGHT_COLUMN] = table.column(WEIGHT_COLUMN)
    return Table(table.name, out, dictionaries)


def _join_keys(
    left: Table, right: Table, left_keys: Sequence[str], right_keys: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Packed keys of both join inputs in one code space ``[0, span)``. A
    key pair is read as stored when both sides are plain or coded under one
    dictionary; codes of two dictionaries are never compared: decoded."""
    n_left = left.num_rows
    combined = []
    for l_name, r_name in zip(left_keys, right_keys):
        shared = same_dictionary(left.dictionary(l_name), right.dictionary(r_name))
        read = Table.key_column if shared else Table.column
        l_col, r_col = read(left, l_name), read(right, r_name)
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
    in left-row order and, per left row, right-row order.

    A right (build) side whose keys are unique, as a dimension's are, is
    probed without expanding runs: on a dense span through a span-sized
    table of right positions, on a sparse one by one ``searchsorted`` into
    its sorted keys. Only duplicate build keys pay for the stable sort and
    the per-match ``repeat``."""
    if dense_span(span, len(left_key) + len(right_key)):
        per_key = np.bincount(right_key, minlength=span)
        if per_key.max(initial=0) <= 1:
            hit = np.full(span, -1, dtype=np.intp)
            hit[right_key] = np.arange(len(right_key))
            hit = hit[left_key]
            left_idx = np.flatnonzero(hit >= 0)
            return left_idx, hit[left_idx]
        order = stable_argsort(right_key)
        lo = (np.cumsum(per_key) - per_key)[left_key]
        counts = per_key[left_key]
    else:
        order = stable_argsort(right_key)
        sorted_right = right_key[order]
        if len(sorted_right) and not (sorted_right[1:] == sorted_right[:-1]).any():
            at = np.searchsorted(sorted_right, left_key)
            left_idx = np.flatnonzero(sorted_right[np.minimum(at, len(order) - 1)] == left_key)
            return left_idx, order[at[left_idx]]
        lo = np.searchsorted(sorted_right, left_key, side="left")
        counts = np.searchsorted(sorted_right, left_key, side="right") - lo
    left_idx = np.repeat(np.arange(len(left_key)), counts)
    # Match j of left row i is right position lo[i] + (j - first output
    # row of i), the first output row of i being ends[i] - counts[i].
    ends = np.cumsum(counts)
    right_idx = order[np.repeat(lo - ends + counts, counts) + np.arange(len(left_idx))]
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
    left_idx, right_idx = _match_pairs(*_join_keys(left, right, left_keys, right_keys))
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

    dictionaries: Dict[str, np.ndarray] = {}

    def gather(name: str, fill=None) -> np.ndarray:
        """The named column's matched rows plus fill rows; codes stay
        codes unless fill rows are due (``""`` may have no code)."""
        side, idx, fill_rows = (
            (left, left_idx, left_fill) if left.has_column(name) else (right, right_idx, right_fill)
        )
        if fill_rows or side.dictionary(name) is None:
            return _padded(side.column(name, idx), fill_rows, fill)
        dictionaries[name] = side.dictionary(name)
        return side.key_column(name)[idx]

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
    return Table(f"{left.name}_join_{right.name}", out, dictionaries)


def execute_aggregate(
    table: Table,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    compute_ci: bool = False,
    universe_rescale: Optional[Dict[str, float]] = None,
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
) -> Table:
    """Grouped aggregation with Horvitz-Thompson estimation: the one-input
    case of :mod:`repro.engine.aggregate`, which documents the estimators
    and the three annotations (:class:`~repro.engine.aggregate.Estimation`)."""
    how = Estimation(compute_ci, universe_rescale, universe_variance)
    state = partial_aggregate(table, group_by, aggs, how)
    return finalize_partial(state, aggs, how, name=f"{table.name}_agg")


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
