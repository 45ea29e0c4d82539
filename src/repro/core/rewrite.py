"""Successor rewriting: aggregates become unbiased estimators (Table 8).

After ASALQA settles the physical samplers, every aggregation above a
sampler is replaced by a :class:`WeightedAggregate` — the "successor" of
the seeding split. The executor then computes, per the paper's Table 8:

====================  ==================================================
true value            estimate rewritten by Quickr
====================  ==================================================
SUM(x)                SUM(w * x)
COUNT(*)              SUM(w)
AVG(x)                SUM(w * x) / SUM(w)
SUM(IF(f(x), y, z))   SUM(IF(f(x), w * y, w * z))
COUNT(DISTINCT x)     COUNT(DISTINCT x) * (universe-sampled on x ? w : 1)
====================  ==================================================

plus an optional confidence-interval column per aggregate (the successor's
"(b) appends an optional column that offers a confidence interval").

The COUNT DISTINCT universe correction is the paper's observation that the
number of unique values in the chosen subspace scales up by the inverse of
the fraction of subspace chosen — the same column the sampler sub-samples
on can still be counted.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.algebra.aggregates import AggKind
from repro.algebra.logical import Aggregate, Join, LogicalNode, SamplerNode
from repro.samplers.base import PassThroughSpec
from repro.samplers.universe import UniverseSpec

__all__ = ["WeightedAggregate", "finalize_plan", "samplers_below"]


class WeightedAggregate(Aggregate):
    """Aggregate annotated with Horvitz-Thompson estimation metadata.

    ``universe_rescale`` maps COUNT DISTINCT aliases to their 1/p factor
    when a universe sampler below subsumes the counted columns.
    ``universe_variance`` is ``(universe column names, p)`` when the
    sub-plan's dominant sampler is a universe sampler, switching the
    variance estimator to the correlated-inclusion form.
    """

    def __init__(
        self,
        child: LogicalNode,
        group_by,
        aggs,
        compute_ci: bool = True,
        universe_rescale: Optional[Dict[str, float]] = None,
        universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
    ):
        super().__init__(child, group_by, aggs)
        self.compute_ci = compute_ci
        self.universe_rescale = dict(universe_rescale or {})
        self.universe_variance = universe_variance

    _params = Aggregate._params + ("compute_ci", "universe_rescale", "universe_variance")

    def _construct(self, children) -> "WeightedAggregate":
        (child,) = children
        return WeightedAggregate(
            child,
            self.group_by,
            self.aggs,
            self.compute_ci,
            self.universe_rescale,
            self.universe_variance,
        )

    def _build_key(self) -> tuple:
        rescale = tuple(sorted(self.universe_rescale.items()))
        return ("wagg", self.group_by, tuple(a.key() for a in self.aggs), rescale, self.child.key())


def join_key_equivalence(node: LogicalNode) -> Dict[str, str]:
    """Union-find over equi-join key pairs: column -> class representative.

    Inside an aggregate's subtree, `ss_customer_sk = sr_customer_sk = ...`
    all carry the same values on surviving rows, so a universe sampler on
    any of them restricts the value subspace of all of them. COUNT DISTINCT
    rescaling and variance grouping use this equivalence.
    """
    parent: Dict[str, str] = {}

    def find(col: str) -> str:
        parent.setdefault(col, col)
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for current in node.walk():
        if isinstance(current, Join):
            for lk, rk in zip(current.left_keys, current.right_keys):
                union(lk, rk)
    return {col: find(col) for col in list(parent)}


def samplers_below(node: LogicalNode, stop_at_aggregate: bool = True):
    """Physical samplers in the subtree, not crossing nested aggregations."""
    found = []
    pending = [node]
    while pending:  # pre-order; a loop, so no closure holds itself
        current = pending.pop()
        if stop_at_aggregate and isinstance(current, Aggregate) and current is not node:
            continue
        if isinstance(current, SamplerNode) and not isinstance(current.spec, PassThroughSpec):
            found.append(current.spec)
        pending.extend(reversed(current.children))
    return found


def _universe_annotations(
    aggregate: Aggregate, specs: Sequence
) -> Tuple[Dict[str, float], Optional[Tuple[Tuple[str, ...], float]]]:
    """COUNT DISTINCT rescale factors and variance mode for one aggregate."""
    universes = [s for s in specs if isinstance(s, UniverseSpec)]
    if not universes:
        return {}, None
    equivalence = join_key_equivalence(aggregate)

    def canonical(columns) -> frozenset:
        return frozenset(equivalence.get(c, c) for c in columns)

    rescale: Dict[str, float] = {}
    for agg in aggregate.aggs:
        if agg.kind is AggKind.COUNT_DISTINCT and agg.expr is not None:
            counted = canonical(agg.expr.columns())
            # The sampler kept a p-fraction of the key subspace; when the
            # counted columns include some universe sampler's key columns
            # (up to equi-join equivalence), the in-sample distinct count
            # scales up by exactly 1/p.
            for universe in universes:
                if counted and canonical(universe.columns) <= counted:
                    rescale[agg.alias] = 1.0 / universe.p
                    break
    # For variance, the correlated unit is the key-subspace value. Use any
    # column of the aggregate input that is join-equivalent to the universe
    # columns; paired family members share p.
    available = set(aggregate.child.output_columns())
    representative = universes[0]
    target = canonical(representative.columns)
    ucols_present = tuple(
        c for c in sorted(available) if equivalence.get(c, c) in target
    )[: len(representative.columns)]
    variance_mode = (ucols_present or tuple(representative.columns), representative.p)
    return rescale, variance_mode


def finalize_plan(plan: LogicalNode, compute_ci: bool = True) -> LogicalNode:
    """Rewrite every aggregate above live samplers into its successor form.

    Recursion is on this module-level function itself: a nested ``visit``
    that called itself would leave a function<->cell cycle per planned
    query for the cycle collector.
    """
    children = [finalize_plan(child, compute_ci) for child in plan.children]
    node = plan.with_children(children) if children else plan
    if isinstance(node, Aggregate) and not isinstance(node, WeightedAggregate):
        specs = samplers_below(node)
        if specs:
            rescale, variance_mode = _universe_annotations(node, specs)
            return WeightedAggregate(
                node.child,
                node.group_by,
                node.aggs,
                compute_ci=compute_ci,
                universe_rescale=rescale,
                universe_variance=variance_mode,
            )
    return node
