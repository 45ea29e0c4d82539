"""ASALQA — place Appropriate Samplers at Appropriate Locations in the
Query plan, Automatically (paper Section 4.2).

The algorithm, mirroring the paper's structure on top of a Cascades-style
exploration:

1. **Seed** a sampler with its initial logical state before every
   sampleable aggregation (Section 4.2.2).
2. **Explore**: transformation rules repeatedly push samplers toward the
   raw inputs — past projects, selects, joins (one or both sides, possibly
   introducing universe requirements) and unions — generating a space of
   alternative logical plans (Sections 4.2.3-4.2.5). Alternatives are
   de-duplicated structurally and the frontier is capped.
3. **Cost**: each alternative's sampler states are materialized into
   physical samplers via the C1/C2 checks (Section 4.2.6); the global
   universe-agreement and no-nesting requirements are enforced bottom-up
   (Appendix A); the stage-based cluster model prices each physical plan
   using statistics derived from the catalog. Alternatives differ in one
   sampler at a time: untouched subtrees are shared, not rebuilt, so their
   keys and derived statistics are computed once.
4. **Choose** the cheapest plan whose samplers all satisfy the accuracy
   requirement. If its samplers are all pass-throughs, the query is
   declared *unapproximable* and receives the plan without samplers —
   which happens for roughly a quarter of TPC-DS, as in the paper.
5. **Finalize**: the winning plan's aggregates are rewritten into
   Horvitz-Thompson successors with confidence intervals (Table 8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.algebra.addressing import format_address
from repro.algebra.builder import Query
from repro.algebra.logical import Join, LogicalNode, SamplerNode
from repro.core.costing import (
    CostingOptions,
    SamplerDecision,
    logical_sampler_sites,
    materialize_plan,
)
from repro.core.pushdown import alternatives_below
from repro.core.rewrite import finalize_plan
from repro.core.seeding import seed_samplers
from repro.engine.costmodel import cost_plan
from repro.engine.metrics import ClusterConfig, PlanCost
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.samplers.base import PassThroughSpec
from repro.stats.catalog import Catalog
from repro.stats.derivation import StatsDeriver

__all__ = ["AsalqaOptions", "AsalqaResult", "Asalqa"]

_LOG = obs_log.logger("core.asalqa")


@dataclass(frozen=True)
class AsalqaOptions:
    """Exploration and costing knobs."""

    max_alternatives: int = 192
    costing: CostingOptions = field(default_factory=CostingOptions)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)


@dataclass
class AsalqaResult:
    """Everything the optimizer decided about one query."""

    query_name: str
    baseline_plan: LogicalNode
    plan: LogicalNode
    approximable: bool
    decisions: List[SamplerDecision]
    estimated_cost: PlanCost
    baseline_cost: PlanCost
    alternatives_explored: int
    qo_time_seconds: float

    @property
    def sampler_specs(self) -> list:
        return [
            node.spec
            for node in self.plan.walk()
            if isinstance(node, SamplerNode) and not isinstance(node.spec, PassThroughSpec)
        ]

    def sampler_kinds(self) -> List[str]:
        return [spec.kind for spec in self.sampler_specs]

    def estimated_gain(self) -> float:
        """Predicted Baseline/Quickr machine-hours ratio."""
        mine = self.estimated_cost.machine_hours
        if mine <= 0:
            return 1.0
        return self.baseline_cost.machine_hours / mine

    def summary(self) -> dict:
        return {
            "query": self.query_name,
            "approximable": self.approximable,
            "samplers": self.sampler_kinds(),
            "estimated_gain": round(self.estimated_gain(), 3),
            "alternatives": self.alternatives_explored,
            "qo_time_s": round(self.qo_time_seconds, 4),
        }


def _replace_at(plan: LogicalNode, path: tuple, replacement: LogicalNode) -> LogicalNode:
    if not path:
        return replacement
    children = list(plan.children)
    children[path[0]] = _replace_at(children[path[0]], path[1:], replacement)
    return plan.with_children(children)


class Asalqa:
    """The sampler-aware query optimizer."""

    def __init__(self, catalog: Catalog, options: Optional[AsalqaOptions] = None):
        self.catalog = catalog
        self.options = options or AsalqaOptions()
        self.deriver = StatsDeriver(catalog)

    # -- public API -------------------------------------------------------------
    def optimize(self, query: Query) -> AsalqaResult:
        """Produce a sampled (or provably unapproximable) plan for a query."""
        start = time.perf_counter()
        baseline_plan = query.plan
        baseline_cost = self._cost(baseline_plan)

        with obs_trace.maybe_span("asalqa.seed", query=query.name) as span:
            seeded, num_seeded = seed_samplers(baseline_plan)
            if span is not None:
                span.attributes["seeded"] = num_seeded
        if num_seeded == 0:
            _LOG.debug("%s: no sampleable aggregation; unapproximable", query.name)
            return AsalqaResult(
                query_name=query.name,
                baseline_plan=baseline_plan,
                plan=baseline_plan,
                approximable=False,
                decisions=[],
                estimated_cost=baseline_cost,
                baseline_cost=baseline_cost,
                alternatives_explored=0,
                qo_time_seconds=time.perf_counter() - start,
            )

        with obs_trace.maybe_span("asalqa.explore", query=query.name) as span:
            candidates = self._explore(seeded)
            if span is not None:
                span.attributes["alternatives"] = len(candidates)
        with obs_trace.maybe_span("asalqa.cost", query=query.name) as span:
            best_plan, best_cost, best_decisions = None, None, []
            seen_physical: set = set()
            # Alternatives share most samplers: decide each once per query.
            decided: Dict[tuple, SamplerDecision] = {}
            for candidate in candidates:
                physical, decisions = materialize_plan(
                    candidate, self.deriver, self.options.costing, decided
                )
                key = physical.key()
                if key in seen_physical:
                    continue
                seen_physical.add(key)
                cost = self._cost(physical)
                if best_cost is None or cost.machine_hours < best_cost.machine_hours:
                    best_plan, best_cost, best_decisions = physical, cost, decisions
            if span is not None:
                span.attributes["unique_physical"] = len(seen_physical)

        live = [
            node
            for node in best_plan.walk()
            if isinstance(node, SamplerNode) and not isinstance(node.spec, PassThroughSpec)
        ]
        # The baseline plan always meets the accuracy goal, so a sampled plan
        # must actually beat it to be worth the added error (Section 4.2:
        # "picks the best performing plan among those that meet the desired
        # accuracy" — the plan without samplers is in that set).
        if live and best_cost.machine_hours >= baseline_cost.machine_hours * 0.98:
            live = []
        if not live:
            _LOG.debug(
                "%s: no sampled plan beats the baseline (%d alternatives); unapproximable",
                query.name,
                len(candidates),
            )
            return AsalqaResult(
                query_name=query.name,
                baseline_plan=baseline_plan,
                plan=baseline_plan,
                approximable=False,
                decisions=best_decisions,
                estimated_cost=baseline_cost,
                baseline_cost=baseline_cost,
                alternatives_explored=len(candidates),
                qo_time_seconds=time.perf_counter() - start,
            )

        with obs_trace.maybe_span("asalqa.finalize", query=query.name):
            final = finalize_plan(best_plan)
        _LOG.debug(
            "%s: approximable via %s (%d alternatives explored)",
            query.name,
            [type(n.spec).__name__ for n in live],
            len(candidates),
        )
        return AsalqaResult(
            query_name=query.name,
            baseline_plan=baseline_plan,
            plan=final,
            approximable=True,
            decisions=best_decisions,
            estimated_cost=best_cost,
            baseline_cost=baseline_cost,
            alternatives_explored=len(candidates),
            qo_time_seconds=time.perf_counter() - start,
        )

    # -- internals ---------------------------------------------------------------
    def _cost(self, plan: LogicalNode) -> PlanCost:
        return cost_plan(
            plan, lambda node, address: self.deriver.stats_for(node).rows, self.options.cluster
        )

    def _family_of(self, join: Join) -> int:
        return hash(join.key()) & 0x7FFFFFFF

    def _explore(self, seeded: LogicalNode) -> List[LogicalNode]:
        """Breadth-first generation of push-down alternatives."""
        tracer = obs_trace.current_tracer()
        one_side: Dict[tuple, list] = {}  # pushdown's per-query memo
        seen: Dict[tuple, None] = {seeded.key(): None}
        frontier: List[LogicalNode] = [seeded]
        out: List[LogicalNode] = [seeded]
        limit = self.options.max_alternatives
        while frontier and len(out) < limit:
            plan = frontier.pop(0)
            for node, path in logical_sampler_sites(plan):
                for subtree in alternatives_below(node, self.deriver, self._family_of, one_side):
                    alternative = _replace_at(plan, path, subtree)
                    key = alternative.key()
                    if key in seen:
                        continue
                    seen[key] = None
                    if tracer is not None:
                        # One span per accepted rule firing: the sampler at
                        # ``path`` pushed past the operator now rooting the
                        # replaced subtree, landing at the ``after`` addresses.
                        span = tracer.begin(
                            "asalqa.pushdown",
                            rule=f"push_past_{type(subtree).__name__.lower()}",
                            before=format_address(path),
                            after=",".join(
                                format_address(path + sub)
                                for _, sub in logical_sampler_sites(subtree)
                            ),
                        )
                        tracer.end(span)
                    frontier.append(alternative)
                    out.append(alternative)
                    if len(out) >= limit:
                        return out
        return out
