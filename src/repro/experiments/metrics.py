"""Error metrics for approximate answers (paper Section 5.1).

*Missed Groups* — fraction of groups present in the exact answer but absent
from the approximate one. *Aggregation Error* — mean relative error of all
aggregate values over the groups both answers share. Both are computed by
aligning the two answer tables on the group-by columns, exactly as the
paper does "by analyzing the query output": :func:`compare_answers` is
:mod:`repro.obs.accuracy`'s one comparator, re-exported here beside the
plan helpers that find an answer's group and aggregate columns.

The paper's LIMIT-100 subtlety is reproduced: with ``full_answer=True``
the comparison is taken before any ORDER BY + LIMIT (the paper's "full
answer"), which is how Quickr's zero-missed-groups claim is evaluated.
"""

from __future__ import annotations

from typing import Tuple

from repro.algebra.aggregates import AggKind
from repro.algebra.logical import Aggregate, Limit, LogicalNode, OrderBy
from repro.obs.accuracy import ErrorMetrics, compare_answers

__all__ = ["ErrorMetrics", "compare_answers", "strip_limit", "answer_structure"]


def answer_structure(plan: LogicalNode) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(group columns, aggregate aliases) of the plan's outermost aggregate."""
    for node in plan.walk():
        if isinstance(node, Aggregate):
            sampleable = [a.alias for a in node.aggs if a.kind is not AggKind.MIN and a.kind is not AggKind.MAX]
            return node.group_by, tuple(sampleable)
    return (), ()


def strip_limit(plan: LogicalNode) -> LogicalNode:
    """Remove top-of-plan ORDER BY / LIMIT: the paper's "full answer"."""
    while isinstance(plan, (Limit, OrderBy)):
        plan = plan.child
    return plan

