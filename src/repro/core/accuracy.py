"""Plan unrolling for accuracy analysis (paper Section 4.3, Figure 9).

A plan with samplers at arbitrary locations is mapped — via the dominance
rules — to an equivalent expression with a *single* sampler just below the
aggregation. The unrolled sampler gives conservative (no-better) error
predictions for the real plan, which is exactly how ASALQA certifies
accuracy without simulating every intermediate. The Horvitz-Thompson
estimators and their variance (Proposition 3) are executed in one place,
:mod:`repro.engine.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.algebra.logical import (
    Aggregate,
    Join,
    LogicalNode,
    Project,
    SamplerNode,
    Select,
    UnionAll,
)
from repro.samplers.base import PassThroughSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

__all__ = ["UnrollStep", "UnrolledSampler", "unroll_plan"]


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

