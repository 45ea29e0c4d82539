"""Deriving statistics for every plan sub-expression.

ASALQA costs sampled plans using "cardinality estimates per relational
expression (how many rows) and the number of distinct values in each column
subset" (Section 4.2.6), derived from the base-table statistics in the
catalog. This module implements that derivation: selectivity estimation for
predicates (refined by heavy-hitter frequencies), join cardinality under the
containment assumption, distinct-value propagation via column lineage, and
sampler cardinality from the sampler's expected pass fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.algebra.expressions import And, Cmp, Col, Expr, IsIn, Lit, Not, Or
from repro.algebra.logical import (
    Aggregate,
    Join,
    Limit,
    LogicalNode,
    OrderBy,
    Project,
    SamplerNode,
    Scan,
    Select,
    UnionAll,
)
from repro.errors import PlanError
from repro.stats.catalog import Catalog

__all__ = [
    "NodeStats",
    "StatsDeriver",
    "estimate_selectivity",
    "reweight_surviving_partitions",
]

#: Selectivity assumed for predicates we cannot analyze (UDFs etc.).
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Distinct-value guess for computed columns with no lineage.
UNKNOWN_DISTINCT = 1000.0

Lineage = Dict[str, Optional[Tuple[str, FrozenSet[str]]]]


def reweight_surviving_partitions(
    weights: np.ndarray, num_partitions: int, num_lost: int
) -> Tuple[np.ndarray, float]:
    """Horvitz-Thompson re-weighting after permanent partition loss.

    When a round-robin partition of a uniform/universe-sampled plan is
    permanently lost, the surviving partitions are themselves a valid
    sample of the data (Rong et al., "Approximate Partition Selection using
    Summary Statistics"): a row's inclusion probability gains an extra
    ``survivors / num_partitions`` factor, so every surviving weight is
    multiplied by the reciprocal. Estimates stay unbiased; the inflated
    weights flow through the existing variance algebra, so confidence
    intervals widen by exactly the coverage the query lost. Returns the
    re-scaled weights and the applied factor.
    """
    if num_lost < 0 or num_partitions < 1:
        raise PlanError(
            f"invalid partition loss: {num_lost} lost of {num_partitions}"
        )
    if num_lost == 0:
        return weights, 1.0
    survivors = num_partitions - num_lost
    if survivors <= 0:
        raise PlanError("cannot re-weight: every partition was lost")
    factor = num_partitions / survivors
    return np.asarray(weights, dtype=np.float64) * factor, factor


@dataclass
class NodeStats:
    """Derived statistics of one plan node's output relation."""

    rows: float
    lineage: Lineage
    catalog: Catalog
    #: :meth:`distinct` per column sequence, as asked: the planner asks the
    #: same node for the same set many times.
    _distinct: Dict[tuple, float] = field(default_factory=dict, repr=False, compare=False)

    def distinct(self, columns) -> float:
        """Estimated distinct count of a column set in this relation.

        Pure-lineage columns are grouped per source table and resolved with
        exact base-table set-distinct counts; computed columns contribute a
        bounded fallback; cross-table sets multiply under independence.

        The product is deliberately *not* capped by the relation's row
        count: the sampler support algebra (support = rows / NumDV(S), with
        sfm corrections that are themselves distinct-count ratios) only
        cancels correctly when NumDV composes multiplicatively. Callers that
        need a cardinality (e.g. aggregate output rows) cap at their site.

        Kept per column *sequence*, not per set: the per-table product runs
        in the order asked, and two orders may round differently.
        """
        colset = tuple(columns)
        cached = self._distinct.get(colset)
        if cached is None:
            cached = self._distinct[colset] = self._derive_distinct(colset)
        return cached

    def _derive_distinct(self, colset: tuple) -> float:
        if not colset:
            return 1.0
        if self.rows <= 0:
            return 0.0
        per_table: Dict[str, set] = {}
        unknown = 0
        for name in colset:
            source = self.lineage.get(name)
            if source is None:
                unknown += 1
            else:
                table, base_cols = source
                per_table.setdefault(table, set()).update(base_cols)
        product = 1.0
        for table, base_cols in per_table.items():
            product *= max(1, self.catalog.distinct(table, base_cols))
        product *= UNKNOWN_DISTINCT**unknown
        return max(1.0, product)

    def distinct_independent(self, columns) -> float:
        """Distinct count under full column independence: the product of
        per-column distinct counts.

        This is the estimate the sampler-support algebra needs: the ``sfm``
        corrections are built from per-column(-set) distinct ratios, so they
        cancel exactly against a multiplicative strata count. The exact
        (sparse) set count from :meth:`distinct` can be far smaller on a
        small relation, which would silently inflate support and make the
        optimizer pick samplers that miss groups.
        """
        product = 1.0
        for name in columns:
            product *= max(1.0, self.distinct([name]))
        return max(1.0, product)

    def heavy_hitters(self, column: str) -> Dict:
        """Heavy-hitter frequencies for a pure-lineage single column,
        scaled to this relation's cardinality."""
        source = self.lineage.get(column)
        if source is None:
            return {}
        table, base_cols = source
        if len(base_cols) != 1:
            return {}
        (base_col,) = base_cols
        stats = self.catalog.stats(table)
        base_rows = max(1, stats.rows)
        scale = self.rows / base_rows
        return {value: freq * scale for value, freq in stats.column(base_col).heavy_hitters.items()}

    def with_rows(self, rows: float) -> "NodeStats":
        return NodeStats(rows=rows, lineage=dict(self.lineage), catalog=self.catalog)


def estimate_selectivity(predicate: Expr, stats: NodeStats) -> float:
    """Fraction of rows expected to pass ``predicate``."""
    if isinstance(predicate, And):
        return max(
            1e-6,
            estimate_selectivity(predicate.left, stats) * estimate_selectivity(predicate.right, stats),
        )
    if isinstance(predicate, Or):
        s1 = estimate_selectivity(predicate.left, stats)
        s2 = estimate_selectivity(predicate.right, stats)
        return min(1.0, s1 + s2 - s1 * s2)
    if isinstance(predicate, Not):
        return min(1.0, max(0.0, 1.0 - estimate_selectivity(predicate.child, stats)))
    if isinstance(predicate, IsIn) and isinstance(predicate.child, Col):
        dv = stats.distinct([predicate.child.name])
        return min(1.0, len(predicate.values) / max(1.0, dv))
    if isinstance(predicate, Cmp):
        return _comparison_selectivity(predicate, stats)
    return DEFAULT_SELECTIVITY


def _comparison_selectivity(cmp: Cmp, stats: NodeStats) -> float:
    column, literal = None, None
    flipped = False
    if isinstance(cmp.left, Col) and isinstance(cmp.right, Lit):
        column, literal = cmp.left, cmp.right
    elif isinstance(cmp.right, Col) and isinstance(cmp.left, Lit):
        column, literal = cmp.right, cmp.left
        flipped = True
    if column is None:
        return DEFAULT_SELECTIVITY

    # The distinct count is asked for only where it is used: for a computed
    # column it is a column-set count over the whole base table.
    if cmp.op == "==":
        hh = stats.heavy_hitters(column.name)
        if literal.value in hh and stats.rows > 0:
            return min(1.0, hh[literal.value] / stats.rows)
        return min(1.0, 1.0 / max(1.0, stats.distinct([column.name])))
    if cmp.op == "!=":
        return max(0.0, 1.0 - 1.0 / max(1.0, stats.distinct([column.name])))

    # Range predicate: uniform-range assumption over [min, max] if known.
    source = stats.lineage.get(column.name)
    if source is not None and len(source[1]) == 1 and isinstance(literal.value, (int, float)):
        table, base_cols = source
        (base_col,) = base_cols
        col_stats = stats.catalog.stats(table).column(base_col)
        lo, hi = col_stats.min_value, col_stats.max_value
        if lo is not None and hi is not None and hi > lo:
            frac_below = (float(literal.value) - lo) / (hi - lo)
            frac_below = min(1.0, max(0.0, frac_below))
            op = cmp.op
            if flipped:
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            if op in ("<", "<="):
                return max(1e-6, frac_below)
            return max(1e-6, 1.0 - frac_below)
    return DEFAULT_SELECTIVITY


class StatsDeriver:
    """Memoized derivation of :class:`NodeStats` for every plan node."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._memo: Dict[tuple, NodeStats] = {}

    def stats_for(self, node: LogicalNode) -> NodeStats:
        key = node.key()
        cached = self._memo.get(key)
        if cached is None:
            cached = self._derive(node)
            self._memo[key] = cached
        return cached

    # -- per-node derivation ----------------------------------------------------
    def _derive(self, node: LogicalNode) -> NodeStats:
        if isinstance(node, Scan):
            lineage: Lineage = {c: (node.table, frozenset({c})) for c in node.output_columns()}
            return NodeStats(rows=float(self.catalog.row_count(node.table)), lineage=lineage, catalog=self.catalog)

        if isinstance(node, Select):
            child = self.stats_for(node.child)
            selectivity = estimate_selectivity(node.predicate, child)
            return child.with_rows(child.rows * selectivity)

        if isinstance(node, Project):
            child = self.stats_for(node.child)
            lineage = {}
            for name, expr in node.mapping.items():
                if isinstance(expr, Col):
                    lineage[name] = child.lineage.get(expr.name)
                else:
                    lineage[name] = self._merged_lineage(expr, child)
            return NodeStats(rows=child.rows, lineage=lineage, catalog=self.catalog)

        if isinstance(node, Join):
            left = self.stats_for(node.left)
            right = self.stats_for(node.right)
            dv_left = left.distinct(node.left_keys)
            dv_right = right.distinct(node.right_keys)
            denom = max(dv_left, dv_right, 1.0)
            rows = left.rows * right.rows / denom
            if node.how == "left":
                rows = max(rows, left.rows)
            elif node.how == "right":
                rows = max(rows, right.rows)
            lineage = dict(left.lineage)
            lineage.update(right.lineage)
            return NodeStats(rows=rows, lineage=lineage, catalog=self.catalog)

        if isinstance(node, Aggregate):
            child = self.stats_for(node.child)
            groups = min(child.rows, child.distinct(node.group_by)) if node.group_by else 1.0
            lineage = {k: child.lineage.get(k) for k in node.group_by}
            for agg in node.aggs:
                lineage[agg.alias] = None
            return NodeStats(rows=groups, lineage=lineage, catalog=self.catalog)

        if isinstance(node, SamplerNode):
            child = self.stats_for(node.child)
            return child.with_rows(child.rows * self._sampler_fraction(node, child))

        if isinstance(node, OrderBy):
            return self.stats_for(node.child)

        if isinstance(node, Limit):
            child = self.stats_for(node.child)
            return child.with_rows(min(child.rows, float(node.n)))

        if isinstance(node, UnionAll):
            children = [self.stats_for(c) for c in node.children]
            merged = dict(children[0].lineage)
            return NodeStats(
                rows=sum(c.rows for c in children), lineage=merged, catalog=self.catalog
            )

        raise PlanError(f"cannot derive statistics for {type(node).__name__}")

    def _merged_lineage(self, expr: Expr, child: NodeStats) -> Optional[Tuple[str, FrozenSet[str]]]:
        """Lineage of a computed column: defined when every input column
        traces to the same base table."""
        tables = set()
        base_cols: set = set()
        for name in expr.columns():
            source = child.lineage.get(name)
            if source is None:
                return None
            tables.add(source[0])
            base_cols.update(source[1])
        if len(tables) == 1 and base_cols:
            return (next(iter(tables)), frozenset(base_cols))
        return None

    def _sampler_fraction(self, node: SamplerNode, child: NodeStats) -> float:
        spec = node.spec
        fraction = getattr(spec, "expected_fraction", lambda: 1.0)()
        # The distinct sampler leaks delta rows per stratum on top of p.
        columns = getattr(spec, "columns", None)
        delta = getattr(spec, "delta", None)
        if columns is not None and delta is not None and child.rows > 0:
            names = []
            for entry in columns:
                if isinstance(entry, str):
                    names.append(entry)
                else:
                    names.extend(sorted(entry.columns()))
            strata = child.distinct(names)
            leak = min(child.rows, delta * strata)
            fraction = min(1.0, fraction + leak / child.rows)
        return fraction
