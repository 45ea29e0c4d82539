"""Classical relational rewrites used by both Baseline and Quickr plans.

The paper's Baseline is a production Cascades optimizer; ours applies the
standard rewrites that matter for the cost profile of these workloads:

* conjunct splitting and select push-down (predicates sink to the deepest
  node whose schema satisfies them — in particular below joins, which is
  what makes fact-dimension joins cheap and gives Quickr's samplers
  first-pass locations to land on);
* adjacent-select fusion;
* pruning of projections that are pure identity maps.
"""

from __future__ import annotations

from typing import List

from repro.algebra.expressions import And, Col, Expr
from repro.algebra.logical import Join, LogicalNode, Project, Select, UnionAll

__all__ = ["split_conjuncts", "push_selects_down", "prune_identity_projects", "normalize"]


def split_conjuncts(predicate: Expr) -> List[Expr]:
    """Flatten a conjunctive predicate into its literal conjuncts."""
    if isinstance(predicate, And):
        return predicate.conjuncts()
    return [predicate]


def _sink(node: LogicalNode, predicate: Expr) -> LogicalNode:
    """Push one conjunct as deep as its column requirements allow."""
    needed = predicate.columns()

    if isinstance(node, Select):
        return Select(_sink(node.child, predicate), node.predicate)

    if isinstance(node, Join):
        left_cols = set(node.left.output_columns())
        right_cols = set(node.right.output_columns())
        if needed <= left_cols:
            return node.with_children([_sink(node.left, predicate), node.right])
        if needed <= right_cols:
            return node.with_children([node.left, _sink(node.right, predicate)])
        return Select(node, predicate)

    if isinstance(node, Project):
        renames = node.identity_passthrough()
        if needed <= set(renames):
            pushed = predicate.rename({name: renames[name] for name in needed})
            return Project(_sink(node.child, pushed), node.mapping)
        return Select(node, predicate)

    if isinstance(node, UnionAll):
        return UnionAll([_sink(child, predicate) for child in node.children])

    return Select(node, predicate)


def push_selects_down(plan: LogicalNode) -> LogicalNode:
    """Sink every select's conjuncts as deep as possible."""
    if isinstance(plan, Select):
        child = push_selects_down(plan.child)
        result = child
        for conjunct in split_conjuncts(plan.predicate):
            result = _sink(result, conjunct)
        return result
    if not plan.children:
        return plan
    return plan.with_children([push_selects_down(c) for c in plan.children])


def fuse_adjacent_selects(plan: LogicalNode) -> LogicalNode:
    """Merge Select(Select(x, p2), p1) into Select(x, p1 AND p2)."""
    if isinstance(plan, Select) and isinstance(plan.child, Select):
        inner = fuse_adjacent_selects(plan.child)
        if isinstance(inner, Select):
            return Select(inner.child, And(plan.predicate, inner.predicate))
        return Select(inner, plan.predicate)
    if not plan.children:
        return plan
    return plan.with_children([fuse_adjacent_selects(c) for c in plan.children])


def prune_identity_projects(plan: LogicalNode) -> LogicalNode:
    """Remove projections that map every column to itself unchanged."""
    if not plan.children:
        return plan
    node = plan.with_children([prune_identity_projects(c) for c in plan.children])
    if isinstance(node, Project):
        child_cols = node.child.output_columns()
        is_identity = tuple(node.mapping.keys()) == tuple(child_cols) and all(
            isinstance(expr, Col) and expr.name == name for name, expr in node.mapping.items()
        )
        if is_identity:
            return node.child
    return node


def normalize(plan: LogicalNode) -> LogicalNode:
    """The standard rewrite pipeline applied before sampler exploration."""
    plan = push_selects_down(plan)
    plan = fuse_adjacent_selects(plan)
    plan = prune_identity_projects(plan)
    return plan
