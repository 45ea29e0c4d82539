"""Greedy cost-based join ordering.

Inner-join chains are flattened into a join graph (leaves plus equi-join
edges) and rebuilt left-deep: start from the cheapest connected pair, then
repeatedly attach the relation that minimizes the estimated intermediate
cardinality. This mirrors what a production optimizer's join enumeration
achieves on the star/snowflake shapes of the evaluation workloads — small
dimension tables join early, so they become broadcast joins, and fact-fact
joins move as late as their predicates allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.algebra.logical import Join, LogicalNode
from repro.stats.derivation import StatsDeriver

__all__ = ["flatten_join_tree", "reorder_joins"]


@dataclass
class _JoinEdge:
    left_leaf: int
    right_leaf: int
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]


def _leaf_owning(leaves: List[LogicalNode], column: str) -> int:
    for index, leaf in enumerate(leaves):
        if column in leaf.output_columns():
            return index
    raise LookupError(column)


def _collect_chain(current: LogicalNode, leaves: List[LogicalNode], edges: List[_JoinEdge]) -> None:
    """Post-order walk of an inner-join chain into ``leaves`` and ``edges``;
    LookupError when a join key cannot be attributed to a single leaf."""
    if isinstance(current, Join) and current.how == "inner":
        _collect_chain(current.left, leaves, edges)
        _collect_chain(current.right, leaves, edges)
        li = _leaf_owning(leaves, current.left_keys[0])
        ri = _leaf_owning(leaves, current.right_keys[0])
        edges.append(_JoinEdge(li, ri, current.left_keys, current.right_keys))
    else:
        leaves.append(current)


def flatten_join_tree(node: LogicalNode) -> Optional[Tuple[List[LogicalNode], List[_JoinEdge]]]:
    """Flatten a maximal chain of inner joins into (leaves, edges).

    Returns None when the node is not an inner join (nothing to reorder).
    Non-join children become leaves; outer joins act as chain boundaries.
    """
    if not isinstance(node, Join) or node.how != "inner":
        return None
    leaves: List[LogicalNode] = []
    edges: List[_JoinEdge] = []
    try:
        _collect_chain(node, leaves, edges)
    except LookupError:
        return None
    if len(leaves) < 3:
        return None
    return leaves, edges


def reorder_joins(node: LogicalNode, deriver: StatsDeriver) -> LogicalNode:
    """Recursively reorder every inner-join chain in the plan."""
    if node.children:
        node = node.with_children([reorder_joins(c, deriver) for c in node.children])
    flat = flatten_join_tree(node)
    if flat is None:
        return node
    leaves, edges = flat
    if not edges:
        return node
    return _greedy_left_deep(leaves, edges, deriver) or node


def _greedy_left_deep(
    leaves: List[LogicalNode], edges: List[_JoinEdge], deriver: StatsDeriver
) -> Optional[LogicalNode]:
    remaining: Set[int] = set(range(len(leaves)))
    by_leaf: Dict[int, List[_JoinEdge]] = {}
    for edge in edges:
        by_leaf.setdefault(edge.left_leaf, []).append(edge)
        by_leaf.setdefault(edge.right_leaf, []).append(edge)

    def rows(plan: LogicalNode) -> float:
        return deriver.stats_for(plan).rows

    def join_pair(current: LogicalNode, joined: Set[int], candidate: int) -> Optional[Join]:
        """Join the current left-deep tree with leaf ``candidate`` using
        every applicable edge's key pairs."""
        left_keys: List[str] = []
        right_keys: List[str] = []
        for edge in by_leaf.get(candidate, []):
            other = edge.left_leaf if edge.right_leaf == candidate else edge.right_leaf
            if other not in joined:
                continue
            if edge.right_leaf == candidate:
                left_keys.extend(edge.left_keys)
                right_keys.extend(edge.right_keys)
            else:
                left_keys.extend(edge.right_keys)
                right_keys.extend(edge.left_keys)
        if not left_keys:
            return None
        try:
            return Join(current, leaves[candidate], left_keys, right_keys, "inner")
        except Exception:
            return None

    # Seed with the connected pair that yields the smallest output.
    best_seed: Optional[Tuple[float, _JoinEdge]] = None
    for edge in edges:
        try:
            seed = Join(
                leaves[edge.left_leaf], leaves[edge.right_leaf], edge.left_keys, edge.right_keys, "inner"
            )
        except Exception:
            continue
        score = rows(seed)
        if best_seed is None or score < best_seed[0]:
            best_seed = (score, edge)
    if best_seed is None:
        return None
    _, seed_edge = best_seed
    current: LogicalNode = Join(
        leaves[seed_edge.left_leaf],
        leaves[seed_edge.right_leaf],
        seed_edge.left_keys,
        seed_edge.right_keys,
        "inner",
    )
    joined = {seed_edge.left_leaf, seed_edge.right_leaf}
    remaining -= joined

    while remaining:
        best: Optional[Tuple[float, int, Join]] = None
        for candidate in remaining:
            attempt = join_pair(current, joined, candidate)
            if attempt is None:
                continue
            score = rows(attempt)
            if best is None or score < best[0]:
                best = (score, candidate, attempt)
        if best is None:
            # Disconnected graph (should not happen for valid plans): give up.
            return None
        _, candidate, current = best
        joined.add(candidate)
        remaining.discard(candidate)
    return current
