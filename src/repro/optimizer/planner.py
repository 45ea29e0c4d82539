"""End-to-end planning: Baseline QO and Quickr QO over the same substrate.

``QuickrPlanner`` is the library's main entry point:

* ``plan_baseline(query)`` — normalize (select push-down, project pruning)
  and reorder joins: the production optimizer *without* samplers.
* ``plan(query)`` — the same relational preparation, then ASALQA explores
  sampled alternatives natively (the paper's option (b): samplers are
  first-class operators inside the optimizer, not an a-posteriori edit).

Both return plans over the identical substrate, so measured differences
come only from the samplers — mirroring the paper's evaluation, whose
Baseline "is identical to Quickr except for samplers".

Planning is deterministic in the submitted plan, so both entry points memo
their results in a canonical-fingerprint-keyed LRU (the engine's
:class:`~repro.engine.physical.PlanCache`): a repeated query (the dominant
pattern in the paper's production trace) skips normalization, join
reordering and the ASALQA exploration entirely. Pass ``plan_cache_size=0``
to disable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.algebra.addressing import plan_fingerprint
from repro.algebra.builder import Query
from repro.algebra.logical import LogicalNode
from repro.core.asalqa import Asalqa, AsalqaOptions, AsalqaResult
from repro.engine.metrics import PlanCost
from repro.engine.physical import PlanCache
from repro.engine.table import Database
from repro.obs.trace import maybe_span
from repro.optimizer.join_order import reorder_joins
from repro.optimizer.rules import normalize
from repro.stats.catalog import Catalog
from repro.stats.derivation import StatsDeriver

__all__ = ["BaselinePlan", "QuickrPlanner"]


@dataclass
class BaselinePlan:
    """A relationally-optimized plan without samplers."""

    query_name: str
    plan: LogicalNode
    estimated_cost: PlanCost
    qo_time_seconds: float


class QuickrPlanner:
    """Shared-substrate planner producing Baseline and Quickr plans."""

    def __init__(
        self,
        database: Database,
        options: Optional[AsalqaOptions] = None,
        reorder: bool = True,
        plan_cache_size: int = 128,
    ):
        self.database = database
        self.catalog = Catalog(database)
        self.options = options or AsalqaOptions()
        self.reorder = reorder
        self._asalqa = Asalqa(self.catalog, self.options)
        # Keyed by (kind, fingerprint) of the submitted (pre-normalization)
        # plan. The cache serializes its own access — the query service
        # plans from many session threads against one planner — while
        # planning itself stays outside the lock.
        self._plan_cache = PlanCache(capacity=int(plan_cache_size))

    # -- relational preparation shared by both planners ----------------------
    def prepare(self, query: Query) -> Query:
        with maybe_span("planner.normalize", query=query.name):
            plan = normalize(query.plan)
        if self.reorder:
            with maybe_span("planner.reorder_joins", query=query.name):
                plan = reorder_joins(plan, self._asalqa.deriver)
        return Query(query.name, plan)

    def plan_baseline(self, query: Query) -> BaselinePlan:
        """The production QO without samplers."""
        key = ("baseline", plan_fingerprint(query.plan))
        hit = self._plan_cache.get(key)
        if hit is not None:
            return hit
        start = time.perf_counter()
        with maybe_span("planner.plan_baseline", query=query.name):
            prepared = self.prepare(query)
            cost = self._asalqa._cost(prepared.plan)
        result = BaselinePlan(
            query_name=query.name,
            plan=prepared.plan,
            estimated_cost=cost,
            qo_time_seconds=time.perf_counter() - start,
        )
        self._plan_cache.put(key, result)
        return result

    def plan(self, query: Query) -> AsalqaResult:
        """The Quickr QO: relational preparation plus ASALQA."""
        key = ("quickr", plan_fingerprint(query.plan))
        hit = self._plan_cache.get(key)
        if hit is not None:
            return hit
        with maybe_span("planner.plan", query=query.name) as span:
            prepared = self.prepare(query)
            result = self._asalqa.optimize(prepared)
            if span is not None:
                span.attributes.update(
                    approximable=result.approximable,
                    alternatives=result.alternatives_explored,
                    samplers=",".join(result.sampler_kinds()),
                )
        self._plan_cache.put(key, result)
        return result

    @property
    def deriver(self) -> StatsDeriver:
        return self._asalqa.deriver
