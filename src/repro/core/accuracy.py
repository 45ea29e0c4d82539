"""Accuracy analysis of sampled plans (paper Section 4.3, Appendix B).

Three pieces:

* **Horvitz-Thompson estimation** (Proposition 3): unbiased estimates and
  one-pass variance for all three samplers. The grouped, vectorized forms
  are :mod:`repro.engine.aggregate`; the standalone forms here are the
  reference used by tests and by plan analysis.
* **Group coverage** (Proposition 4): the probability that a group appears
  in the answer, per sampler.
* **Plan unrolling** (Figure 9): a plan with samplers at arbitrary
  locations is mapped — via the dominance rules — to an equivalent
  expression with a *single* sampler just below the aggregation. The
  unrolled sampler gives conservative (no-better) error predictions for
  the real plan, which is exactly how ASALQA certifies accuracy without
  simulating every intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.algebra.logical import (
    Aggregate,
    Join,
    LogicalNode,
    Project,
    SamplerNode,
    Select,
    UnionAll,
)
from repro.engine.aggregate import Z_95
from repro.samplers.base import PassThroughSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from repro.stats.derivation import StatsDeriver

__all__ = [
    "ht_estimate",
    "ht_variance_independent",
    "ht_variance_universe",
    "confidence_interval",
    "miss_probability_uniform",
    "miss_probability_distinct",
    "miss_probability_universe",
    "UnrollStep",
    "UnrolledSampler",
    "AccuracyReport",
    "unroll_plan",
    "analyze_plan",
]


# -- Horvitz-Thompson estimators (Proposition 3, Equations 1-2) -----------------

def ht_estimate(values: np.ndarray, weights: np.ndarray) -> float:
    """Unbiased estimate of sum(values over the full population)."""
    return float(np.sum(np.asarray(values, dtype=np.float64) * np.asarray(weights, dtype=np.float64)))


def ht_variance_independent(values: np.ndarray, weights: np.ndarray) -> float:
    """Estimated variance when rows were included independently
    (uniform or distinct samplers): sum_i (w_i^2 - w_i) y_i^2."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return float(np.sum((w * w - w) * v * v))


def ht_variance_universe(values: np.ndarray, key_codes: np.ndarray, p: float) -> float:
    """Estimated variance under universe sampling: rows sharing a key value
    are perfectly correlated, so (1-p)/p^2 * sum_g (sum_{i in g} y_i)^2."""
    v = np.asarray(values, dtype=np.float64)
    codes = np.asarray(key_codes)
    _, inverse = np.unique(codes, return_inverse=True)
    sums = np.bincount(inverse, weights=v)
    return float((1.0 - p) / (p * p) * np.sum(sums * sums))


def confidence_interval(estimate: float, variance: float, z: float = Z_95) -> Tuple[float, float]:
    """Central-limit-theorem confidence interval."""
    half = z * math.sqrt(max(0.0, variance))
    return (estimate - half, estimate + half)


# -- group coverage (Proposition 4) ------------------------------------------------

def miss_probability_uniform(p: float, group_size: float) -> float:
    """P[group missed] = (1-p)^|G| for the uniform sampler."""
    if group_size <= 0:
        return 1.0
    return float((1.0 - p) ** group_size)


def miss_probability_distinct(p: float, group_size: float, stratified_on_group: bool) -> float:
    """Zero when the stratification columns contain the group-by columns;
    otherwise no worse than the uniform sampler."""
    if stratified_on_group:
        return 0.0
    return miss_probability_uniform(p, group_size)


def miss_probability_universe(p: float, distinct_key_values_in_group: float) -> float:
    """P[group missed] = (1-p)^|G(C)| where G(C) is the set of distinct
    key-subspace values among the group's rows."""
    if distinct_key_values_in_group <= 0:
        return 1.0
    return float((1.0 - p) ** distinct_key_values_in_group)


# -- plan unrolling (Figure 9) ---------------------------------------------------

@dataclass
class UnrollStep:
    """One dominance-rule application while floating a sampler to the root."""

    rule: str
    operator: str
    detail: str = ""


@dataclass
class UnrolledSampler:
    """The single at-root sampler equivalent (for analysis) of a plan."""

    kind: str
    p: float
    columns: Tuple[str, ...] = ()
    delta: Optional[int] = None
    steps: List[UnrollStep] = field(default_factory=list)


@dataclass
class AccuracyReport:
    """Predicted accuracy of a sampled plan at one aggregation."""

    unrolled: Optional[UnrolledSampler]
    groups: float
    support_per_group: float
    miss_probability: float
    relative_standard_error: float

    def meets_goal(self, max_miss: float = 1e-3, max_error: float = 0.2) -> bool:
        return self.miss_probability <= max_miss and self.relative_standard_error <= max_error


def _float_sampler_up(node: LogicalNode, steps: List[UnrollStep]):
    """Return the sampler spec floated to ``node``'s output, or None.

    Implements the inverted push-down rules: U1/U2/U3, D1/D2/D3 and
    V1/V2/V3a (Propositions 7-9). A universe family across a join collapses
    into one universe sampler above the join (rule V3a read right-to-left);
    independent samplers on both join sides compose into a sampler whose
    probability is the product (rule U3).
    """
    if isinstance(node, SamplerNode):
        if isinstance(node.spec, PassThroughSpec):
            return _float_sampler_up(node.child, steps)
        below = _float_sampler_up(node.child, steps)
        if below is not None:
            steps.append(UnrollStep("no-nesting", "sampler", "nested samplers are forbidden"))
        return node.spec
    if isinstance(node, (Select,)):
        spec = _float_sampler_up(node.child, steps)
        if spec is not None:
            rule = {"uniform": "U2", "distinct": "D2", "universe": "V2"}.get(spec.kind, "U2")
            steps.append(UnrollStep(rule, "select", "sampler commutes with selection"))
        return spec
    if isinstance(node, Project):
        spec = _float_sampler_up(node.child, steps)
        if spec is not None:
            rule = {"uniform": "U1", "distinct": "D1", "universe": "V1"}.get(spec.kind, "U1")
            steps.append(UnrollStep(rule, "project", "sampler commutes with projection"))
        return spec
    if isinstance(node, Join):
        left = _float_sampler_up(node.left, steps)
        right = _float_sampler_up(node.right, steps)
        if left is None and right is None:
            return None
        if left is None or right is None:
            only = left or right
            rule = {"uniform": "U3", "distinct": "D3b", "universe": "V3b"}.get(only.kind, "U3")
            steps.append(UnrollStep(rule, "join", "one-sided sampler floats above the join"))
            return only
        if (
            isinstance(left, UniverseSpec)
            and isinstance(right, UniverseSpec)
            and left.same_subspace_as(right)
        ):
            steps.append(
                UnrollStep(
                    "V3a",
                    "join",
                    "paired universe samplers equal one universe sampler of the join output",
                )
            )
            return UniverseSpec(left.columns, left.p, seed=left.seed)
        # Independent samplers on both sides: composed inclusion is the
        # product of probabilities (rule U3 with p = p1 * p2).
        p1 = getattr(left, "p", 1.0)
        p2 = getattr(right, "p", 1.0)
        steps.append(UnrollStep("U3", "join", f"independent samplers compose: p = {p1:g} * {p2:g}"))
        return UniformSpec(max(1e-12, p1 * p2), seed=getattr(left, "seed", 0))
    if isinstance(node, UnionAll):
        specs = [_float_sampler_up(c, steps) for c in node.children]
        live = [s for s in specs if s is not None]
        if not live:
            return None
        steps.append(UnrollStep("union", "union-all", "identical samplers merge across branches"))
        return live[0]
    if isinstance(node, Aggregate):
        # Nested aggregation boundary: inner estimates are treated as exact.
        return None
    if node.children:
        return _float_sampler_up(node.children[0], steps)
    return None


def unroll_plan(plan: LogicalNode) -> Optional[UnrolledSampler]:
    """Figure 9: collapse a plan's samplers into one at-root equivalent."""
    aggregates = [n for n in plan.walk() if isinstance(n, Aggregate)]
    if not aggregates:
        return None
    root_aggregate = aggregates[0]
    steps: List[UnrollStep] = []
    spec = _float_sampler_up(root_aggregate.child, steps)
    if spec is None:
        return None
    return UnrolledSampler(
        kind=spec.kind,
        p=getattr(spec, "p", 1.0),
        columns=tuple(getattr(spec, "columns", ())),
        delta=getattr(spec, "delta", None),
        steps=steps,
    )


def analyze_plan(plan: LogicalNode, deriver: StatsDeriver) -> AccuracyReport:
    """Predict miss probability and relative error for a sampled plan.

    Uses the unrolled single-sampler equivalent plus derived statistics: a
    group's support is the unsampled rows-per-group at the aggregation
    input; by dominance, the true plan's error is no worse than the
    unrolled sampler's error at that support.
    """
    aggregates = [n for n in plan.walk() if isinstance(n, Aggregate)]
    if not aggregates:
        return AccuracyReport(None, 0.0, 0.0, 0.0, 0.0)
    aggregate = aggregates[0]
    stats = deriver.stats_for(aggregate.child)
    groups = stats.distinct(aggregate.group_by) if aggregate.group_by else 1.0
    # Support is defined on the unsampled relation: divide out the sampler's
    # expected pass fraction if a sampler sits directly below.
    rows = stats.rows
    unrolled = unroll_plan(plan)
    if unrolled is None:
        return AccuracyReport(None, groups, rows / max(1.0, groups), 0.0, 0.0)
    unsampled_rows = rows / max(unrolled.p, 1e-12) if unrolled.p < 1.0 else rows
    support = unsampled_rows / max(1.0, groups)

    if unrolled.kind == "universe":
        sampler_node_inputs = [
            n for n in plan.walk() if isinstance(n, SamplerNode) and isinstance(n.spec, UniverseSpec)
        ]
        key_values = support
        if sampler_node_inputs:
            child_stats = deriver.stats_for(sampler_node_inputs[0].child)
            key_values = min(support, child_stats.distinct(sampler_node_inputs[0].spec.columns))
        miss = miss_probability_universe(unrolled.p, key_values)
        kept = max(1.0, unrolled.p * key_values)
    elif unrolled.kind == "distinct":
        strat_covers_group = set(aggregate.group_by) <= set(unrolled.columns)
        miss = miss_probability_distinct(unrolled.p, support, strat_covers_group)
        kept = max(1.0, max(unrolled.delta or 0, unrolled.p * support))
    else:
        miss = miss_probability_uniform(unrolled.p, support)
        kept = max(1.0, unrolled.p * support)

    relative_se = 1.0 / math.sqrt(kept)
    return AccuracyReport(
        unrolled=unrolled,
        groups=groups,
        support_per_group=support,
        miss_probability=miss,
        relative_standard_error=relative_se,
    )
