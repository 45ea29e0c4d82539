"""Merging partition outputs back into one answer.

Two merge modes, trading exactness of *reproduction* against shuffle size:

* **row merge** (:func:`merge_rows`) — concatenate the partition outputs of
  the precursor and restore the exact serial row order by merging the
  payloads (sorted runs) on their packed lineage key. The serial
  aggregation then runs over a byte-identical input, so estimates match a
  serial run bit-for-bit (including floating-point summation order). This
  mirrors shipping sampled rows to a single downstream vertex, which is
  cheap precisely because the samplers already shrank the data (the
  paper's argument for why sampled plans keep their wins through the
  shuffle).

* **partial-aggregate merge** (:func:`partial_aggregate` /
  :func:`merge_partials` / :func:`finalize_partial`) — each worker reduces
  its partition to per-group partial states; the parent merges states by
  group value and finalizes. This is the classic two-phase aggregation a
  cluster would run. All Horvitz-Thompson components are additive:

  - SUM/COUNT (and their IF forms): Σ w·y and the variance term
    Σ (w² − w)·y² add across partitions;
  - AVG: numerator, denominator (Σ w) and the delta-method covariance
    terms all add;
  - MIN/MAX: combine by min/max;
  - COUNT DISTINCT: the union of per-partition (group, value) sets
    deduplicates exactly;
  - universe-sampler variance couples rows sharing a key-subspace value
    (Section B.1: Var = (1−p)/p² Σ_v (Σ_{i∈v} y_i)²), so the partial state
    keeps the *inner* sums per (group, universe value) and squares them
    only after merging — partitions may split a universe value.

  Estimates agree with the serial run up to floating-point reassociation;
  group order follows first appearance across partitions (sort downstream
  if order matters).

Sketches keep their own merge laws (error slacks add; the union's k minima
are the k minima of the unions): :func:`merge_heavy_hitters` and
:func:`merge_kmv` fold them across partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.aggregates import AggKind
from repro.algebra.logical import Aggregate
from repro.engine.keys import pack_keys
from repro.engine.operators import (
    CI_SUFFIX,
    Z_95,
    _grouped_max,
    _grouped_min,
    _grouped_sum,
    _per_row_contribution,
    group_codes,
)
from repro.engine.table import Table
from repro.errors import PlanError

__all__ = [
    "merge_rows",
    "PartialAggregate",
    "partial_aggregate",
    "merge_partials",
    "finalize_partial",
    "inflate_selection_cis",
    "merge_heavy_hitters",
    "merge_kmv",
]

#: Reserved column for the distinct-value member of a (group, value) pair.
_VALUE = "__value__"


def merge_rows(tables: Sequence[Table], name: Optional[str] = None) -> Table:
    """Union partition outputs, restoring exact serial row order.

    Lineage column names sort into pre-order scan order (significance
    order), and every plan operator below the aggregate emits rows in
    lexicographic lineage order, so ordering the concatenation by its
    lineage tuples reproduces the serial stream exactly. The tuples are
    packed into one order-preserving int64
    (:func:`repro.engine.keys.pack_keys`) and each payload is already a
    sorted run of it, which a stable timsort merges in O(n log D); input
    that is not (outer-join ``-1`` fills) is still sorted correctly, ties
    staying in concatenation order.
    """
    if not tables:
        raise PlanError("merge_rows needs at least one partition output")
    if len(tables) == 1:
        # Single survivor: its rows are already the whole stream (modulo the
        # ordering below) — skip the concat copy. With the shm transport
        # this keeps the answer a zero-copy view until materialization.
        merged = tables[0] if name is None else tables[0].rename_columns({}, name=name)
    else:
        merged = Table.concat(tables, name=name or tables[0].name)
    lineage = merged.lineage_columns()
    if not lineage:
        return merged
    key = pack_keys(lineage)[0]
    if (key[1:] >= key[:-1]).all():
        return merged  # already one sorted run
    return merged.take(np.argsort(key, kind="stable"))


# -- partial aggregation --------------------------------------------------------


@dataclass
class PartialAggregate:
    """Mergeable per-partition aggregation state (one row per group)."""

    group_by: Tuple[str, ...]
    weighted: bool
    #: Group-key columns, one entry per group (empty dict for scalars).
    keys: Dict[str, np.ndarray] = field(default_factory=dict)
    #: (alias, tag) -> per-group component values. Tags: ``est``, ``var``,
    #: ``num``, ``varnum``, ``cov`` (additive), ``min``/``max`` (combine by
    #: min/max). Alias ``""`` holds shared components: ``n`` (row count),
    #: ``wsum`` (Σ w), ``wvar`` (Σ w² − w).
    comps: Dict[Tuple[str, str], np.ndarray] = field(default_factory=dict)
    #: COUNT DISTINCT state: alias -> columns of unique (group, value) pairs
    #: (group-key columns plus ``__value__``).
    distinct: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    #: Universe-variance state: one row per (group, universe value) pair.
    universe_pairs: Optional[Dict[str, np.ndarray]] = None
    #: alias -> per-pair Σ y (aligned with ``universe_pairs`` rows).
    universe_ysums: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        for arr in self.comps.values():
            return len(arr)
        return 0


def _first_appearance_codes(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Group codes renumbered in order of first appearance (the serial
    aggregate's group emission order)."""
    codes, first_index, num_groups = group_codes(arrays)
    order = np.argsort(first_index)
    remap = np.empty(num_groups, dtype=np.int64)
    remap[order] = np.arange(num_groups)
    return remap[codes], first_index[order], num_groups


_SUM_LIKE = (AggKind.SUM, AggKind.COUNT, AggKind.SUM_IF, AggKind.COUNT_IF)


def partial_aggregate(
    table: Table,
    aggregate: Aggregate,
    compute_ci: bool = False,
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
) -> PartialAggregate:
    """Reduce one partition's precursor output to mergeable state."""
    weighted = table.has_weights()
    weights = table.weights()
    n = table.num_rows

    if aggregate.group_by:
        key_arrays = [table.column(k) for k in aggregate.group_by]
        if n:
            codes, first_index, num_groups = _first_appearance_codes(key_arrays)
            keys = {k: arr[first_index] for k, arr in zip(aggregate.group_by, key_arrays)}
        else:
            codes = np.zeros(0, dtype=np.int64)
            num_groups = 0
            keys = {k: arr for k, arr in zip(aggregate.group_by, key_arrays)}
    else:
        codes = np.zeros(n, dtype=np.int64)
        num_groups = 1  # scalar aggregates always emit one group
        keys = {}

    state = PartialAggregate(group_by=tuple(aggregate.group_by), weighted=weighted, keys=keys)
    comps = state.comps
    comps[("", "n")] = np.bincount(codes, minlength=num_groups).astype(np.float64)
    comps[("", "wsum")] = _grouped_sum(codes, num_groups, weights)
    if compute_ci and weighted:
        comps[("", "wvar")] = _grouped_sum(codes, num_groups, weights * weights - weights)

    universe_values = None
    if universe_variance is not None and compute_ci and weighted:
        ucols, _ = universe_variance
        present = [c for c in ucols if table.has_column(c)]
        if present:
            universe_values = present
            pair_codes, pair_first, pair_groups = _first_appearance_codes(
                [codes] + [table.column(c) for c in present]
            )
            state.universe_pairs = {}
            if aggregate.group_by:
                state.universe_pairs = {
                    k: arr[pair_first] for k, arr in zip(aggregate.group_by, key_arrays)
                }
            for c in present:
                state.universe_pairs[c] = table.column(c)[pair_first]

    for agg in aggregate.aggs:
        alias = agg.alias
        if agg.kind in _SUM_LIKE:
            y = _per_row_contribution(agg, table)
            comps[(alias, "est")] = _grouped_sum(codes, num_groups, weights * y)
            if compute_ci and weighted:
                if universe_values is not None:
                    state.universe_ysums[alias] = _grouped_sum(pair_codes, pair_groups, y)
                else:
                    comps[(alias, "var")] = _grouped_sum(
                        codes, num_groups, (weights * weights - weights) * y * y
                    )
        elif agg.kind is AggKind.AVG:
            y = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            comps[(alias, "num")] = _grouped_sum(codes, num_groups, weights * y)
            if compute_ci and weighted:
                comps[(alias, "varnum")] = _grouped_sum(
                    codes, num_groups, (weights * weights - weights) * y * y
                )
                comps[(alias, "cov")] = _grouped_sum(
                    codes, num_groups, (weights * weights - weights) * y
                )
        elif agg.kind is AggKind.MIN:
            values = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            comps[(alias, "min")] = _grouped_min(codes, num_groups, values)
        elif agg.kind is AggKind.MAX:
            values = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            comps[(alias, "max")] = _grouped_max(codes, num_groups, values)
        elif agg.kind is AggKind.COUNT_DISTINCT:
            values = np.asarray(agg.expr.evaluate(table))
            pair_arrays = ([table.column(k) for k in aggregate.group_by]
                           if aggregate.group_by else []) + [values]
            if n:
                _, pfirst, _ = group_codes(pair_arrays)
                pfirst = np.sort(pfirst)
            else:
                pfirst = np.zeros(0, dtype=np.int64)
            pairs = {k: arr[pfirst] for k, arr in zip(aggregate.group_by, pair_arrays)}
            pairs[_VALUE] = values[pfirst]
            state.distinct[alias] = pairs
        else:
            raise PlanError(f"unknown aggregate kind {agg.kind}")
    return state


def _merge_keyed(
    parts: List[Dict[str, np.ndarray]], key_names: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], List[np.ndarray], int]:
    """Concatenate keyed dicts; return merged keys, per-part group codes and
    the merged group count (first-appearance order across parts)."""
    arrays = [np.concatenate([p[k] for p in parts]) for k in key_names]
    codes, first_index, num_groups = _first_appearance_codes(arrays)
    keys = {k: arr[first_index] for k, arr in zip(key_names, arrays)}
    lengths = [len(next(iter(p.values()))) if p else 0 for p in parts]
    splits = np.cumsum(lengths)[:-1]
    return keys, list(np.split(codes, splits)), num_groups


def merge_partials(partials: Sequence[PartialAggregate]) -> PartialAggregate:
    """Fold per-partition states into one global state."""
    partials = [p for p in partials if p is not None]
    if not partials:
        raise PlanError("merge_partials needs at least one partial state")
    first = partials[0]
    merged = PartialAggregate(
        group_by=first.group_by, weighted=any(p.weighted for p in partials)
    )

    if first.group_by:
        merged.keys, codes_per_part, num_groups = _merge_keyed(
            [p.keys for p in partials], first.group_by
        )
    else:
        codes_per_part = [np.zeros(p.num_groups, dtype=np.int64) for p in partials]
        num_groups = 1

    for comp in first.comps:
        _, tag = comp
        stacked = np.concatenate([p.comps[comp] for p in partials])
        codes = np.concatenate(codes_per_part)
        if tag == "min":
            merged.comps[comp] = _grouped_min(codes, num_groups, stacked)
        elif tag == "max":
            merged.comps[comp] = _grouped_max(codes, num_groups, stacked)
        else:
            merged.comps[comp] = _grouped_sum(codes, num_groups, stacked)

    for alias in first.distinct:
        key_names = list(first.group_by) + [_VALUE]
        pair_keys, _, _ = _merge_keyed([p.distinct[alias] for p in partials], key_names)
        merged.distinct[alias] = pair_keys

    if first.universe_pairs is not None:
        key_names = list(first.universe_pairs.keys())
        pair_keys, pair_codes, pair_groups = _merge_keyed(
            [p.universe_pairs for p in partials], key_names
        )
        merged.universe_pairs = pair_keys
        codes = np.concatenate(pair_codes)
        for alias in first.universe_ysums:
            stacked = np.concatenate([p.universe_ysums[alias] for p in partials])
            merged.universe_ysums[alias] = _grouped_sum(codes, pair_groups, stacked)
    return merged


def _codes_against(
    ref: Dict[str, np.ndarray], other: Dict[str, np.ndarray], key_names: Sequence[str]
) -> np.ndarray:
    """Dense codes of ``other`` rows in terms of ``ref``'s row order."""
    if not key_names:
        return np.zeros(len(next(iter(other.values()), np.zeros(0))), dtype=np.int64)
    n_ref = len(ref[key_names[0]])
    combined = []
    for k in key_names:
        common = np.result_type(ref[k].dtype, other[k].dtype)
        combined.append(np.concatenate([ref[k].astype(common), other[k].astype(common)]))
    codes, _, num = group_codes(combined)
    mapping = np.full(num, -1, dtype=np.int64)
    mapping[codes[:n_ref]] = np.arange(n_ref)
    out = mapping[codes[n_ref:]]
    if (out < 0).any():
        raise PlanError("partial state references a group absent from the merged keys")
    return out


def finalize_partial(
    state: PartialAggregate,
    aggregate: Aggregate,
    compute_ci: bool = False,
    universe_rescale: Optional[Dict[str, float]] = None,
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
    name: str = "merged_agg",
) -> Table:
    """Turn a (merged) partial state into the aggregate's output table."""
    universe_rescale = universe_rescale or {}
    comps = state.comps
    num_groups = state.num_groups
    n_rows = comps[("", "n")]
    weight_sum = comps[("", "wsum")]
    empty_scalar = not state.group_by and float(n_rows.sum()) == 0.0

    out: Dict[str, np.ndarray] = {k: v for k, v in state.keys.items()}
    universe_p = universe_variance[1] if universe_variance is not None else None

    for agg in aggregate.aggs:
        alias = agg.alias
        variance: Optional[np.ndarray] = None
        if agg.kind in _SUM_LIKE:
            estimate = comps[(alias, "est")]
            if alias in state.universe_ysums and universe_p is not None:
                pair_codes = _codes_against(state.keys, state.universe_pairs, state.group_by)
                sums = state.universe_ysums[alias]
                variance = np.zeros(num_groups)
                np.add.at(
                    variance,
                    pair_codes,
                    (1.0 - universe_p) / (universe_p * universe_p) * sums * sums,
                )
            elif (alias, "var") in comps:
                variance = comps[(alias, "var")]
        elif agg.kind is AggKind.AVG:
            numerator = comps[(alias, "num")]
            with np.errstate(invalid="ignore", divide="ignore"):
                estimate = np.where(weight_sum > 0, numerator / weight_sum, np.nan)
            if (alias, "varnum") in comps:
                var_num = comps[(alias, "varnum")]
                var_den = comps[("", "wvar")]
                cov = comps[(alias, "cov")]
                with np.errstate(invalid="ignore", divide="ignore"):
                    ratio = estimate
                    variance = np.where(
                        weight_sum > 0,
                        (var_num - 2 * ratio * cov + ratio * ratio * var_den)
                        / (weight_sum * weight_sum),
                        np.nan,
                    )
                variance = np.maximum(variance, 0.0)
            if empty_scalar:
                estimate = np.asarray([np.nan])
        elif agg.kind in (AggKind.MIN, AggKind.MAX):
            tag = "min" if agg.kind is AggKind.MIN else "max"
            estimate = comps[(alias, tag)]
            if empty_scalar:
                estimate = np.asarray([np.nan])
        elif agg.kind is AggKind.COUNT_DISTINCT:
            pairs = state.distinct[alias]
            pair_codes = _codes_against(state.keys, pairs, state.group_by)
            raw = np.bincount(pair_codes, minlength=num_groups).astype(np.float64)
            factor = universe_rescale.get(alias, 1.0)
            estimate = raw * factor
            if compute_ci and state.weighted and factor > 1.0:
                p = 1.0 / factor
                variance = raw * (1.0 - p) / (p * p)
        else:
            raise PlanError(f"unknown aggregate kind {agg.kind}")
        out[alias] = np.asarray(estimate, dtype=np.float64)
        if compute_ci:
            if variance is None or empty_scalar:
                variance = np.zeros(num_groups)
            out[alias + CI_SUFFIX] = Z_95 * np.sqrt(np.maximum(variance, 0.0))

    return Table(name, out)


# -- weighted-selection CI inflation --------------------------------------------


def inflate_selection_cis(
    table: Table,
    aggregate: Aggregate,
    payloads: Sequence[Table],
    inclusions: Sequence[float],
) -> Table:
    """Widen CI columns by the between-partition selection variance.

    The row-level HT variance Σ (w² − w)·y² assumes independent per-row
    inclusion, but weighted partition selection includes or excludes whole
    partitions at once. With folded weights (w₀/π) the unbiased extra term
    for a SUM-like aggregate is Σ_{p∈S, π_p<1} (1 − π_p)·T̂²_{p,g}, where
    T̂_{p,g} is partition p's folded total for group g. CIs widen to
    sqrt(ci² + z²·var_extra).

    Best-effort by design: only SUM/COUNT (and IF forms) have an additive
    per-partition total, and alignment needs the group-by keys to survive
    into the answer — anything else is returned untouched.
    """
    targets = [
        agg
        for agg in aggregate.aggs
        if agg.kind in _SUM_LIKE
        and table.has_column(agg.alias)
        and table.has_column(agg.alias + CI_SUFFIX)
    ]
    group_by = tuple(aggregate.group_by)
    if not targets or any(not table.has_column(k) for k in group_by):
        return table

    extra = {agg.alias: np.zeros(table.num_rows) for agg in targets}
    if group_by:
        answer_keys = [table.column(k) for k in group_by]
        row_of = {
            tuple(arr[i] for arr in answer_keys): i for i in range(table.num_rows)
        }
    for payload, pi in zip(payloads, inclusions):
        if pi >= 1.0 or payload.num_rows == 0:
            continue
        weights = payload.weights()
        if group_by:
            key_cols = [payload.column(k) for k in group_by]
            codes, first_index, num_groups = group_codes(key_cols)
            rows = [
                row_of.get(tuple(arr[j] for arr in key_cols)) for j in first_index
            ]
            for agg in targets:
                totals = _grouped_sum(
                    codes, num_groups, weights * _per_row_contribution(agg, payload)
                )
                slot = extra[agg.alias]
                for g, row in enumerate(rows):
                    if row is not None:
                        slot[row] += (1.0 - pi) * totals[g] * totals[g]
        else:
            for agg in targets:
                total = float(np.sum(weights * _per_row_contribution(agg, payload)))
                extra[agg.alias] += (1.0 - pi) * total * total

    widened = {}
    for agg in targets:
        ci_col = agg.alias + CI_SUFFIX
        old = np.asarray(table.column(ci_col), dtype=np.float64)
        widened[ci_col] = np.sqrt(old * old + Z_95 * Z_95 * extra[agg.alias])
    return table.with_columns(widened)


# -- sketch folds ---------------------------------------------------------------


def merge_heavy_hitters(sketches):
    """Fold per-partition heavy-hitter sketches (error slacks add)."""
    return reduce(lambda a, b: a.merge(b), sketches)


def merge_kmv(counters):
    """Fold per-partition KMV distinct counters (union's k minima)."""
    return reduce(lambda a, b: a.merge(b), counters)
