"""Sampling dominance (paper Definition 1, Propositions 5-9), as the tests
check it.

``E1 => E2`` ("E2 dominates E1") when the two expressions share a core (the
plan with samplers removed) and E2 has no higher estimator variance
(v-dominance) and no higher group-miss probability (c-dominance). Dominance
is transitive across projections, selections and joins (Proposition 1),
which is what lets the accuracy analysis unroll a multi-sampler plan into a
single at-root sampler.

Nothing in the package executes these rules (the push-down rules are
:mod:`repro.core.pushdown`, the unrolling :mod:`repro.core.accuracy`);
this module provides, for the tests:

* the rule table (switching rule Prop. 6 and push rules Props. 7-9) as
  introspectable objects — the same names the paper uses (U1..U3, D1..D3,
  V1..V3);
* ``core_of`` — strip samplers to compare plan cores;
* an *empirical* dominance checker that re-executes two sampled plans under
  many seeds and compares measured per-group variance and group coverage.
  This is how ``test_dominance`` validates the rule table end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.algebra.logical import LogicalNode, SamplerNode
from repro.engine.executor import Executor
from repro.engine.table import Database
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

__all__ = ["DominanceRule", "RULES", "core_of", "reseed_plan", "EmpiricalDominance", "empirical_dominance"]


@dataclass(frozen=True)
class DominanceRule:
    """One dominance relationship from the paper's rule table."""

    name: str
    statement: str
    proposition: str
    weak: bool = False  # weak dominance (~=>) holds probabilistically for large groups


RULES: Dict[str, DominanceRule] = {
    rule.name: rule
    for rule in [
        DominanceRule(
            "switch-VU",
            "Universe(p, C) => Uniform(p): uniform has no worse variance/coverage",
            "Prop. 6",
        ),
        DominanceRule(
            "switch-UD",
            "Uniform(p) => Distinct(p, C, delta): stratification only helps",
            "Prop. 6",
        ),
        DominanceRule("U1", "Uniform commutes with projection", "Prop. 7"),
        DominanceRule("D1", "Distinct commutes with projection when D is a subset of C", "Prop. 7"),
        DominanceRule("V1", "Universe commutes with projection when D is a subset of C", "Prop. 7"),
        DominanceRule("U2", "Uniform commutes with selection", "Prop. 8"),
        DominanceRule("D2a", "Distinct below a select stratifies additionally on predicate columns", "Prop. 8"),
        DominanceRule("D2b", "Distinct below a select scales delta by 1/selectivity (weak)", "Prop. 8", weak=True),
        DominanceRule("D2c", "Distinct below a select with unchanged state (weak)", "Prop. 8", weak=True),
        DominanceRule("V2", "Universe crosses a select when the overlap with predicate columns is small", "Prop. 8"),
        DominanceRule("U3", "Uniform splits across join inputs with p = p1*p2 (c-dominance)", "Prop. 9"),
        DominanceRule("D3a", "Distinct pushes to one join input, stratifying on the join keys too", "Prop. 9"),
        DominanceRule("D3b", "Distinct pushes to one join input when D is within that input's columns", "Prop. 9"),
        DominanceRule("V3a", "Universe on both join inputs equals universe on the join output", "Prop. 9"),
        DominanceRule("V3b", "Universe pushes to one join input when D is within that input's columns", "Prop. 9"),
    ]
}


def core_of(plan: LogicalNode) -> LogicalNode:
    """The paper's Lambda(E): the expression with all samplers removed."""
    if isinstance(plan, SamplerNode):
        return core_of(plan.child)
    if not plan.children:
        return plan
    return plan.with_children([core_of(c) for c in plan.children])


def reseed_plan(plan: LogicalNode, seed: int) -> LogicalNode:
    """Clone a physical plan with fresh sampler seeds (for Monte-Carlo runs).

    Universe samplers that share a seed (a family) keep sharing the new
    seed, preserving the identical-subspace invariant.
    """
    if isinstance(plan, SamplerNode):
        child = reseed_plan(plan.child, seed)
        spec = plan.spec
        if isinstance(spec, UniformSpec):
            spec = UniformSpec(spec.p, seed=seed + spec.seed)
        elif isinstance(spec, DistinctSpec):
            spec = DistinctSpec(
                spec.columns, spec.delta, spec.p, seed=seed + spec.seed, reservoir_size=spec.reservoir_size
            )
        elif isinstance(spec, UniverseSpec):
            spec = UniverseSpec(spec.columns, spec.p, seed=seed * 1_000_003 + spec.seed, emit_weight=spec.emit_weight)
        return SamplerNode(child, spec)
    if not plan.children:
        return plan
    return plan.with_children([reseed_plan(c, seed) for c in plan.children])


@dataclass
class EmpiricalDominance:
    """Monte-Carlo comparison of two sampled plans with the same core."""

    mean_variance_1: float
    mean_variance_2: float
    miss_rate_1: float
    miss_rate_2: float
    trials: int

    @property
    def v_dominates(self) -> bool:
        """Plan 2 has no worse (estimated) variance than plan 1."""
        tolerance = 0.05 * max(self.mean_variance_1, self.mean_variance_2, 1e-12)
        return self.mean_variance_2 <= self.mean_variance_1 + tolerance

    @property
    def c_dominates(self) -> bool:
        """Plan 2 misses groups no more often than plan 1."""
        return self.miss_rate_2 <= self.miss_rate_1 + 1.0 / self.trials

    @property
    def dominates(self) -> bool:
        return self.v_dominates and self.c_dominates


def _group_estimates(table, group_cols: Tuple[str, ...], value_col: str) -> Dict[tuple, float]:
    out = {}
    for i in range(table.num_rows):
        key = tuple(table.column(c)[i] for c in group_cols)
        out[key] = float(table.column(value_col)[i])
    return out


def empirical_dominance(
    plan1: LogicalNode,
    plan2: LogicalNode,
    database: Database,
    group_cols: Tuple[str, ...],
    value_col: str,
    trials: int = 30,
    seed: int = 0,
) -> EmpiricalDominance:
    """Estimate whether ``plan2`` dominates ``plan1`` by re-executing both
    under ``trials`` independent sampler seeds and measuring per-group
    estimator variance and group coverage against the exact answer."""
    executor = Executor(database)
    exact = executor.execute(core_of(plan1)).table
    truth = _group_estimates(exact, group_cols, value_col)

    def run(plan: LogicalNode) -> Tuple[float, float]:
        per_group: Dict[tuple, List[float]] = {key: [] for key in truth}
        misses = 0
        for trial in range(trials):
            result = executor.execute(reseed_plan(plan, seed + 7919 * (trial + 1))).table
            got = _group_estimates(result, group_cols, value_col)
            for key in truth:
                if key in got:
                    per_group[key].append(got[key])
                else:
                    misses += 1
        variances = [np.var(vals) for vals in per_group.values() if len(vals) > 1]
        mean_var = float(np.mean(variances)) if variances else 0.0
        miss_rate = misses / (trials * max(1, len(truth)))
        return mean_var, miss_rate

    var1, miss1 = run(plan1)
    var2, miss2 = run(plan2)
    return EmpiricalDominance(var1, var2, miss1, miss2, trials)
