"""The one aggregate estimator: partial state -> merge -> finalize.

Every aggregation in the system — serial, per-partition, merged — is the
same three steps over the same state. :func:`partial_aggregate` reduces
rows to per-group components, :func:`merge_partials` folds the states of
several inputs by group value, and :func:`finalize_partial` turns a state
into the answer: the paper's Table 8 Horvitz-Thompson rewrites plus, in
the same pass, the variance behind each confidence-interval column
(Section 4.3, Proposition 2). The serial operator is the one-input case,
``finalize_partial(partial_aggregate(table))``.

Every component is additive across inputs, or combines by min/max:

- SUM/COUNT (and their IF forms): Σ w·y and the variance term
  Σ (w² − w)·y²;
- AVG: numerator Σ w·y, denominator Σ w, and the delta-method terms
  Σ (w² − w)·y², Σ (w² − w)·y and Σ (w² − w);
- MIN/MAX: combine by min/max;
- COUNT DISTINCT: the distinct (group, value) pairs — the union of the
  inputs' pair sets deduplicates exactly;
- universe-sampler variance couples rows sharing a key-subspace value
  (Section B.1: Var = (1−p)/p² Σ_v (Σ_{i∈v} y_i)²), so the state keeps
  the *inner* sums per (group, universe value) pair and squares them only
  when finalizing — inputs may split a universe value.

Pairs name their group by its dense code in the state, never by the key
columns again, so finalizing is one ``bincount`` and merging remaps the
codes with the per-input group codes it computes anyway.

Groups are numbered by first appearance. An unweighted sum whose every
term is a whole number is exact in any order, so it has no summation order
to keep: COUNT and COUNT_IF, and SUM, SUM_IF or AVG of a declared decimal
column (:func:`decimal_scales`), which sums the column's whole units,
``rint(10^s · y)``, and divides once when finalizing. Such sums read an
unbuilt join per probe row. Every other sum keeps row order: each
per-group sum runs in row order (``bincount``), the universe term in
(group, universe value) key order. One input therefore reproduces itself
bit for bit; several inputs agree with one exactly on the whole-number
sums and up to floating-point reassociation on the rest, with groups in
order of first appearance across the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.addressing import trace_to_scan
from repro.algebra.aggregates import AggKind, AggSpec
from repro.algebra.expressions import Col
from repro.engine.keys import dense_span, first_appearance_codes, group_codes
from repro.engine.table import Table
from repro.errors import PlanError

__all__ = [
    "CI_SUFFIX",
    "Z_95",
    "Estimation",
    "PartialAggregate",
    "decimal_scales",
    "key_columns",
    "partial_aggregate",
    "repeated",
    "merge_partials",
    "merged_groups",
    "finalize_partial",
]

#: Suffix for the optional confidence-interval column appended per aggregate.
CI_SUFFIX = "__ci"

#: Central-limit z-score for the 95% confidence intervals Quickr reports.
Z_95 = 1.96


class Estimation(NamedTuple):
    """How an aggregate estimates: the annotations the successor rewrite
    leaves on a :class:`~repro.core.rewrite.WeightedAggregate`."""

    #: Append a ``__ci`` half-width column per aggregate.
    compute_ci: bool = False
    #: COUNT DISTINCT alias -> 1/p, when a universe sampler below subsumes
    #: the counted columns.
    universe_rescale: Optional[Dict[str, float]] = None
    #: ``(universe column names, p)`` when the dominant sampler below is a
    #: universe sampler: variance then accounts for the perfect correlation
    #: of rows within a key-subspace value.
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None
    #: Alias -> scale of each sum of a declared decimal column
    #: (:func:`decimal_scales`): unweighted, it sums whole units.
    decimals: Optional[Dict[str, int]] = None

    @classmethod
    def of(cls, node, database=None) -> "Estimation":
        """The annotations of a plan node (a plain ``Aggregate`` has none),
        and the decimals of ``database`` that its sums read."""
        return cls(
            getattr(node, "compute_ci", False),
            getattr(node, "universe_rescale", None),
            getattr(node, "universe_variance", None),
            None if database is None else decimal_scales(node, database),
        )


#: The aggregates whose measure may be a declared decimal column.
_DECIMAL_KINDS = (AggKind.SUM, AggKind.SUM_IF, AggKind.AVG)


def decimal_scales(node, database) -> Optional[Dict[str, int]]:
    """Alias -> scale of each SUM, SUM_IF or AVG of the aggregate ``node``
    whose measure is a bare column carried unchanged (renamed, perhaps)
    from a base column ``database`` declares decimal
    (:meth:`~repro.engine.table.Database.decimal_scale`); ``None`` when
    there is none. A computed column, an aggregate's output among them,
    keeps the float sum."""
    scales = {}
    for agg in node.aggs:
        if agg.kind in _DECIMAL_KINDS and isinstance(agg.expr, Col):
            traced = trace_to_scan(node.child, (), (agg.expr.name,))
            if traced is not None:
                _, scan, (name,) = traced
                scale = database.decimal_scale(scan.table, name)
                if scale is not None:
                    scales[agg.alias] = scale
    return scales or None


class _Pairs(NamedTuple):
    """Distinct (group, value...) pairs of a state."""

    #: Dense code of each pair's group in the owning state.
    groups: np.ndarray
    #: The value columns, one entry per pair.
    values: Tuple[np.ndarray, ...]


@dataclass
class PartialAggregate:
    """Mergeable aggregation state (one entry per group)."""

    group_by: Tuple[str, ...]
    weighted: bool
    #: Input rows reduced into this state.
    rows: int
    num_groups: int
    #: Group-key columns, one entry per group (empty dict for scalars).
    keys: Dict[str, np.ndarray] = field(default_factory=dict)
    #: (alias, tag) -> per-group component values. Tags: ``est``, ``var``,
    #: ``num``, ``varnum``, ``cov`` (additive), ``min``/``max`` (combine by
    #: min/max). Alias ``""`` holds what AVGs share: ``wsum`` (Σ w) and
    #: ``wvar`` (Σ w² − w).
    comps: Dict[Tuple[str, str], np.ndarray] = field(default_factory=dict)
    #: COUNT DISTINCT state: alias -> the distinct (group, value) pairs.
    distinct: Dict[str, _Pairs] = field(default_factory=dict)
    #: Universe-variance state: the (group, universe value) pairs in key
    #: order, and alias -> Σ y per pair.
    universe_pairs: Optional[_Pairs] = None
    universe_ysums: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Alias -> scale of the sums held in whole units of ``10^-scale``
    #: (exact integers in float64), which finalizing divides back.
    scales: Dict[str, int] = field(default_factory=dict)


_EXTREMES = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


class _Groups:
    """Dense group codes of some entries, and the reducers over them."""

    def __init__(self, codes: np.ndarray, count: int):
        self.codes, self.count = codes, count

    def sum(self, values: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-group Σ values, each group's in entry order; without values,
        the entries per group. Always float64: over no entries
        ``bincount`` answers int64."""
        summed = np.bincount(self.codes, weights=values, minlength=self.count)
        return summed.astype(np.float64, copy=False)

    def reduce(self, tag: str, values: np.ndarray) -> np.ndarray:
        """Combine a component by its tag's law: min/max for those two (a
        group with no entry keeps the identity), a sum for everything else."""
        if tag not in _EXTREMES:
            return self.sum(values)
        ufunc, identity = _EXTREMES[tag]
        out = np.full(self.count, identity)
        ufunc.at(out, self.codes, values)
        return out


class _Input:
    """An aggregate's input and its groups: ``keyed`` codes the group of
    each keyed row, a row of ``table`` or, when ``table`` is an unbuilt
    join, a probe row that matches, standing for ``counts`` output rows."""

    def __init__(self, table, keyed: _Groups, counts: Optional[np.ndarray]):
        self.table, self.keyed, self.counts = table, keyed, counts

    @cached_property
    def rows(self) -> _Groups:
        """The groups of the output rows (made when first needed)."""
        return _Groups(repeated(self.keyed.codes, self.counts), self.keyed.count)

    def whole_sum(self, agg: AggSpec, scale: Optional[int]) -> np.ndarray:
        """Per-group Σ y of an unweighted SUM-like aggregate, or of an
        AVG's numerator, ``y`` in whole units when ``scale`` is given. Over
        an unbuilt join a sum of whole numbers reads one term per probe row
        (:meth:`~repro.engine.operators.JoinedRows.side_sums`); every
        other sum reads the output rows in order."""
        if self.counts is not None and (scale is not None or agg.kind in _WHOLE):
            if agg.kind is AggKind.COUNT:
                return self.keyed.sum(self.counts)
            terms = self.table.side_sums(
                agg.columns(), lambda side: _per_row_contribution(agg, side, scale)
            )
            if terms is not None:
                return self.keyed.sum(terms)
        return self.rows.sum(_per_row_contribution(agg, self.table, scale))


def _distinct_pairs(codes: np.ndarray, values: Sequence[np.ndarray], table=None, names=(),
                    per_row=False):
    """The distinct (group code, value...) pairs, numbered in key order, their
    number, and (``per_row``) each entry's pair code. ``values`` being
    ``table.key_column`` of ``names`` (codes, perhaps), the pairs hold what
    those rows decode to: states of inputs under different dictionaries
    merge."""
    dense = _dense_pair_key(codes, values)
    if dense is None:
        pair_codes, pair_first, num_pairs = group_codes([codes, *values])
        held = [table.column(n, pair_first) for n in names] or [v[pair_first] for v in values]
        return _Pairs(codes[pair_first], tuple(held)), pair_codes, num_pairs
    key, span, lo = dense
    present = np.bincount(key) > 0
    pairs = np.flatnonzero(present)
    held = (pairs % span + lo).astype(values[0].dtype)
    dictionary = table.dictionary(names[0]) if names else None
    if dictionary is not None:
        held = dictionary[held]
    pair_codes = (np.cumsum(present) - 1)[key] if per_row else None
    return _Pairs(pairs // span, (held,)), pair_codes, len(pairs)


def _dense_pair_key(codes: np.ndarray, values: Sequence[np.ndarray]):
    """Each entry's pair key ``group · span + value − lo``, with the value
    column's ``span`` and floor ``lo``, when the values are one integer
    column and the pairs' span is dense; ``None`` for every other shape,
    whose pairs are grouped instead."""
    if len(values) != 1 or values[0].dtype.kind not in "iu" or not len(codes):
        return None
    column = values[0]
    lo, hi = int(column.min()), int(column.max())
    if hi > np.iinfo(np.int64).max:  # a uint64 past int64: no int64 key
        return None
    span = hi - lo + 1
    if not dense_span((int(codes.max()) + 1) * span, len(codes)):
        return None
    key = codes * span
    if column.dtype == np.uint64:  # below 2^63 here, so exact as int64
        column = column.astype(np.int64)
    # In place, in the order that keeps every partial sum inside int64.
    if lo < 0:
        key += column
        key -= lo
    else:
        key -= lo
        key += column
    return key, span, lo


def _per_row_contribution(
    agg: AggSpec, table: Table, scale: Optional[int] = None
) -> Optional[np.ndarray]:
    """The raw (unweighted) per-row value y_i such that the true aggregate is
    sum over all rows of y_i, in whole units of ``10^-scale`` when ``scale``
    is given. Used for both estimate and variance. ``None`` for COUNT,
    whose every y_i is 1."""
    if agg.kind is AggKind.COUNT:
        return None
    if agg.kind is AggKind.COUNT_IF:
        return np.asarray(agg.cond.evaluate(table), dtype=np.float64)
    values = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
    if scale is not None:
        values = values * 10.0**scale
        np.rint(values, out=values)
    if agg.kind is AggKind.SUM_IF:
        return values * np.asarray(agg.cond.evaluate(table), dtype=np.float64)
    return values


_SUM_LIKE = (AggKind.SUM, AggKind.COUNT, AggKind.SUM_IF, AggKind.COUNT_IF)

#: Sum-like aggregates whose every term is a whole number.
_WHOLE = (AggKind.COUNT, AggKind.COUNT_IF)

#: An AVG's denominator, unweighted: the rows per group.
_COUNT = AggSpec(AggKind.COUNT, "")


def _product(*factors: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The product of the factors, left to right, skipping ``None`` (a
    factor of ones: 1.0·x is x bit for bit); ``None`` if all are."""
    product = None
    for factor in factors:
        if factor is not None:
            product = factor if product is None else product * factor
    return product


def key_columns(
    group_by: Sequence[str], aggs: Sequence[AggSpec], how: Estimation = Estimation()
) -> Optional[Tuple[str, ...]]:
    """The columns an aggregate tells rows apart by: its group columns, the
    columns its COUNT DISTINCTs count and the universe columns its variance
    groups on (those its input carries). ``None`` when a COUNT DISTINCT
    counts a computed value, which only its own rows know."""
    names = list(group_by)
    for agg in aggs:
        if agg.kind is AggKind.COUNT_DISTINCT:
            if not isinstance(agg.expr, Col):
                return None
            names.append(agg.expr.name)
    if how.universe_variance is not None:
        names += how.universe_variance[0]
    return tuple(dict.fromkeys(names))


def repeated(values: np.ndarray, counts: Optional[np.ndarray]) -> np.ndarray:
    """Each value ``counts`` times (``None``: once), in order."""
    return values if counts is None else np.repeat(values, counts)


def partial_aggregate(
    table: Table,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    how: Estimation = Estimation(),
    probe: Optional[Tuple[Table, Optional[np.ndarray]]] = None,
) -> PartialAggregate:
    """Reduce one input's rows to mergeable per-group state.

    ``probe`` is given when ``table`` is an inner join's output left
    unbuilt (:class:`~repro.engine.operators.JoinedRows`): ``(rows,
    counts)``, a table of the probe rows that match holding the
    :func:`key_columns`, and how many output rows each one is. Group codes
    and pairs are found on those rows. An unweighted sum of whole numbers
    reads one term per probe row; every other sum, and every weight, is
    read per output row, adding the same values in the same order as over
    the built table."""
    keyed, counts = probe if probe is not None else (table, None)
    weighted = table.has_weights()
    # Unweighted rows weigh 1: their sums skip the product.
    weights = table.weights() if weighted else None
    with_variance = how.compute_ci and weighted
    # w² − w: the HT variance weight of an independently included row.
    spread = weights * weights - weights if with_variance else None

    if group_by:
        # Grouped on codes, where coded; only the groups' first rows decode.
        codes, first_index, num_groups = first_appearance_codes(
            [keyed.key_column(k) for k in group_by]
        )
        keys = {k: keyed.column(k, first_index) for k in group_by}
    else:
        codes = np.zeros(keyed.num_rows, dtype=np.int64)
        num_groups = 1  # scalar aggregates always emit one group
        keys = {}
    grouped = _Input(table, _Groups(codes, num_groups), counts)
    # Weighted sums stay float: only unweighted ones sum whole units.
    scales = {} if weighted else dict(how.decimals or {})
    state = PartialAggregate(
        tuple(group_by), weighted, table.num_rows, num_groups, keys, scales=scales
    )
    comps = state.comps

    universe = None
    if with_variance and how.universe_variance is not None:
        present = [c for c in how.universe_variance[0] if table.has_column(c)]
        if present:
            state.universe_pairs, pair_codes, num_pairs = _distinct_pairs(
                codes, [keyed.key_column(c) for c in present], keyed, present, per_row=True
            )
            universe = _Groups(repeated(pair_codes, counts), num_pairs)

    for agg in aggs:
        alias = agg.alias
        if agg.kind in _SUM_LIKE:
            if not weighted:
                comps[(alias, "est")] = grouped.whole_sum(agg, scales.get(alias))
                continue
            y = _per_row_contribution(agg, table)
            comps[(alias, "est")] = grouped.rows.sum(_product(weights, y))
            if universe is not None:
                state.universe_ysums[alias] = universe.sum(y)
            elif with_variance:
                # Independent per-row inclusion (uniform/distinct samplers):
                # Var-hat = Σ (w² − w)·y².
                comps[(alias, "var")] = grouped.rows.sum(_product(spread, y, y))
        elif agg.kind is AggKind.AVG:
            if not weighted:
                comps[(alias, "num")] = grouped.whole_sum(agg, scales.get(alias))
                if ("", "wsum") not in comps:
                    comps[("", "wsum")] = grouped.whole_sum(_COUNT, None)
                continue
            y = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            comps[(alias, "num")] = grouped.rows.sum(weights * y)
            if ("", "wsum") not in comps:
                comps[("", "wsum")] = grouped.rows.sum(weights)
                if with_variance:
                    comps[("", "wvar")] = grouped.rows.sum(spread)
            if with_variance:
                comps[(alias, "varnum")] = grouped.rows.sum(spread * y * y)
                comps[(alias, "cov")] = grouped.rows.sum(spread * y)
        elif agg.kind in (AggKind.MIN, AggKind.MAX):
            tag = "min" if agg.kind is AggKind.MIN else "max"
            values = np.asarray(agg.expr.evaluate(table), dtype=np.float64)
            comps[(alias, tag)] = grouped.rows.reduce(tag, values)
        elif agg.kind is AggKind.COUNT_DISTINCT:
            names = [agg.expr.name] if isinstance(agg.expr, Col) else []
            values = [keyed.key_column(n) for n in names] or [np.asarray(agg.expr.evaluate(keyed))]
            state.distinct[alias] = _distinct_pairs(codes, values, keyed, names)[0]
        else:
            raise PlanError(f"unknown aggregate kind {agg.kind}")
    return state


def merged_groups(
    states: Sequence[PartialAggregate],
) -> Tuple[Dict[str, np.ndarray], List[np.ndarray], int]:
    """The union of the states' groups in order of first appearance across
    them: its key columns, each state's group codes in it, and its size."""
    group_by = states[0].group_by
    if not group_by:
        return {}, [np.zeros(s.num_groups, dtype=np.int64) for s in states], 1
    arrays = [np.concatenate([s.keys[k] for s in states]) for k in group_by]
    codes, first_index, num_groups = first_appearance_codes(arrays)
    keys = {k: arr[first_index] for k, arr in zip(group_by, arrays)}
    splits = np.cumsum([s.num_groups for s in states])[:-1]
    return keys, np.split(codes, splits), num_groups


def _merge_pairs(parts: Sequence[_Pairs], codes_per_part: Sequence[np.ndarray], per_row=False):
    """Union of the parts' pairs, their groups renamed to the merged codes."""
    groups = np.concatenate([codes[p.groups] for p, codes in zip(parts, codes_per_part)])
    values = [np.concatenate(column) for column in zip(*(p.values for p in parts))]
    return _distinct_pairs(groups, values, per_row=per_row)


def merge_partials(partials: Sequence[PartialAggregate]) -> PartialAggregate:
    """Fold the states of several inputs into one."""
    partials = [p for p in partials if p is not None]
    if not partials:
        raise PlanError("merge_partials needs at least one partial state")
    first = partials[0]
    if any(p.scales != first.scales for p in partials):
        raise PlanError("cannot merge aggregate states that sum in different units")
    keys, codes_per_part, num_groups = merged_groups(partials)
    merged = PartialAggregate(
        first.group_by,
        any(p.weighted for p in partials),
        sum(p.rows for p in partials),
        num_groups,
        keys,
        scales=first.scales,
    )
    groups = _Groups(np.concatenate(codes_per_part), num_groups)
    for comp in first.comps:
        stacked = np.concatenate([p.comps[comp] for p in partials])
        merged.comps[comp] = groups.reduce(comp[1], stacked)
    for alias in first.distinct:
        merged.distinct[alias] = _merge_pairs(
            [p.distinct[alias] for p in partials], codes_per_part
        )[0]
    if first.universe_pairs is not None:
        merged.universe_pairs, pair_codes, num_pairs = _merge_pairs(
            [p.universe_pairs for p in partials], codes_per_part, per_row=True
        )
        pairs = _Groups(pair_codes, num_pairs)
        for alias in first.universe_ysums:
            stacked = np.concatenate([p.universe_ysums[alias] for p in partials])
            merged.universe_ysums[alias] = pairs.sum(stacked)
    return merged


def finalize_partial(
    state: PartialAggregate,
    aggs: Sequence[AggSpec],
    how: Estimation = Estimation(),
    name: str = "merged_agg",
) -> Table:
    """Turn a state into the aggregate's output table.

    Without weights the answers are exact: a sum held in whole units is
    divided back once, so it is the decimal total correctly rounded. With
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
    """
    comps, num_groups = state.comps, state.num_groups
    # Scalar aggregates over empty input: zero counts/sums, NaN averages.
    empty_scalar = not state.group_by and state.rows == 0
    rescale = how.universe_rescale or {}
    out: Dict[str, np.ndarray] = dict(state.keys)

    for agg in aggs:
        alias = agg.alias
        variance: Optional[np.ndarray] = None
        unit = 10.0 ** state.scales[alias] if alias in state.scales else None
        if agg.kind in _SUM_LIKE:
            estimate = comps[(alias, "est")]
            if unit is not None:
                estimate = estimate / unit
            if alias in state.universe_ysums:
                p = how.universe_variance[1]
                sums = state.universe_ysums[alias]
                variance = _Groups(state.universe_pairs.groups, num_groups).sum(
                    (1.0 - p) / (p * p) * sums * sums
                )
            else:
                variance = comps.get((alias, "var"))
        elif agg.kind is AggKind.AVG:
            weight_sum = comps[("", "wsum")]
            # One division of whole units by whole rows: one rounding.
            divisor = weight_sum if unit is None else weight_sum * unit
            with np.errstate(invalid="ignore", divide="ignore"):
                estimate = np.where(weight_sum > 0, comps[(alias, "num")] / divisor, np.nan)
            if (alias, "varnum") in comps:
                # Delta-method variance of the ratio estimator.
                var_num, cov = comps[(alias, "varnum")], comps[(alias, "cov")]
                var_den = comps[("", "wvar")]
                with np.errstate(invalid="ignore", divide="ignore"):
                    variance = np.where(
                        weight_sum > 0,
                        (var_num - 2 * estimate * cov + estimate * estimate * var_den)
                        / (weight_sum * weight_sum),
                        np.nan,
                    )
        elif agg.kind in (AggKind.MIN, AggKind.MAX):
            estimate = comps[(alias, "min" if agg.kind is AggKind.MIN else "max")]
            if empty_scalar:
                estimate = np.asarray([np.nan])
        elif agg.kind is AggKind.COUNT_DISTINCT:
            raw = np.bincount(state.distinct[alias].groups, minlength=num_groups).astype(np.float64)
            factor = rescale.get(alias, 1.0)
            estimate = raw * factor
            if how.compute_ci and state.weighted and factor > 1.0:
                p = 1.0 / factor
                variance = raw * (1.0 - p) / (p * p)
        else:
            raise PlanError(f"unknown aggregate kind {agg.kind}")
        out[alias] = estimate
        if how.compute_ci:
            if variance is None or empty_scalar:
                variance = np.zeros(num_groups)
            out[alias + CI_SUFFIX] = Z_95 * np.sqrt(np.maximum(variance, 0.0))
    return Table(name, out)
