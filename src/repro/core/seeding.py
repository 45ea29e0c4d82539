"""Seeding samplers before aggregations (paper Section 4.2.2, Figure 4).

Each statement with aggregations is conceptually split into a *precursor*
(all joins, selections, UDFs and projections), a *sampler*, and a
*successor* (the aggregations, rewritten as unbiased estimators, plus any
HAVING / ORDER BY / LIMIT). In our plan representation the split is simply
a :class:`~repro.algebra.logical.SamplerNode` inserted between an
``Aggregate`` and its child — the child subtree is the precursor and the
aggregate (later rewritten by :mod:`repro.core.rewrite`) is the successor.

Seeding is optimistic: if the accuracy goal cannot be met, the costing pass
replaces the sampler with a pass-through (Section 4.2.6's default option).

The initial logical state per Figure 4: answer (group-by) columns are added
to the stratification requirement S, columns in *IF conditions and in
COUNT(DISTINCT) are also added (the latter tagged so their overlap with a
future universe requirement is allowed), and ``U = {}``, ``ds = 1``,
``sfm = 1``.
"""

from __future__ import annotations

from typing import Tuple

from repro.algebra.aggregates import AggKind
from repro.algebra.logical import Aggregate, LogicalNode, SamplerNode
from repro.core.sampler_state import SamplerState

__all__ = ["seed_samplers", "initial_state_for"]


def initial_state_for(aggregate: Aggregate) -> SamplerState:
    """The Figure 4 initial sampler state for one aggregation.

    Group-by columns are required stratification. Columns from *IF
    conditions and COUNT(DISTINCT) are *optionally* added (Figure 4):
    stratifying on them corrects conditional skew, but when they would
    make stratification infeasible the costing pass may drop them (they
    only widen variance; they cannot make groups disappear).
    """
    strat = set(aggregate.group_by)
    optional: set = set()
    cd_cols: set = set()
    value_cols: set = set()
    for agg in aggregate.aggs:
        if agg.cond is not None:
            optional |= agg.cond.columns()
        if agg.kind is AggKind.COUNT_DISTINCT and agg.expr is not None:
            cols = agg.expr.columns()
            optional |= cols
            cd_cols |= cols
        elif agg.expr is not None:
            # QVS columns: their value skew decides how much support an
            # aggregate needs for a +-10% answer (Section 4.2.6 costing).
            value_cols |= agg.value_columns()
    return SamplerState(
        strat_cols=frozenset(strat | optional),
        univ_cols=frozenset(),
        ds=1.0,
        sfm=1.0,
        cd_cols=frozenset(cd_cols),
        opt_cols=frozenset(optional - strat),
        value_cols=frozenset(value_cols),
    )


def seed_samplers(plan: LogicalNode) -> Tuple[LogicalNode, int]:
    """Insert a seeded sampler below every sampleable aggregation.

    Returns the new plan and the number of samplers seeded. Aggregations
    containing MIN/MAX (or other non-estimable aggregates) are left alone —
    a sample cannot bound an extreme value, so such queries keep exact
    sub-plans and may end up unapproximable.
    """
    count = 0
    children = []
    for child in plan.children:
        child, seeded_below = seed_samplers(child)
        children.append(child)
        count += seeded_below
    node = plan.with_children(children) if children else plan
    if isinstance(node, Aggregate) and not isinstance(node.child, SamplerNode):
        if node.is_sampleable():
            seeded = SamplerNode(node.child, initial_state_for(node))
            return node.with_children([seeded]), count + 1
    return node, count
