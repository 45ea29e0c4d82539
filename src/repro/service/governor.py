"""The in-flight query governor: degrade accuracy, never availability.

Admission control decides whether a query may *start*; the governor is
the policy layer for queries already running. It owns two things:

* **The governance contract.** Every admitted ticket gets a
  :class:`~repro.engine.governance.GovernanceContext` — absolute
  monotonic deadline, memory budget, shared cancellation token — created
  at submit time (so a still-queued query is cancellable) and threaded
  through the engine, which polls it at every operator/task
  boundary.
* **The degradation ladder.** When that contract trips — or is clearly
  about to — the governor re-plans one rung down instead of failing the
  query, trading accuracy for an answer that arrives:

  ========================  ====================================================
  rung                      meaning
  ========================  ====================================================
  ``exact``                 the production QO, no samplers
  ``quickr``                ASALQA's sampled plan (the paper's normal mode)
  ``quickr-coarse``         the sampled plan with every *uniform* sampler's
                            rate multiplied down — same plan shape, fewer rows
  ``quickr-select``         the coarse plan plus *weighted partition
                            selection*: only ~``selection_fraction`` of the
                            catalog partitions run, rows reweighted by their
                            partition's inverse inclusion probability
                            (requires a partition catalog and a
                            uniform/universe-sampled plan)
  ``partial``               survivors-so-far: the parallel salvage path
                            reweights completed partitions (Horvitz-Thompson)
                            and widens the CIs; never re-planned, only reached
                            mid-flight
  ========================  ====================================================

  Only *uniform* samplers are coarsened: their ``1/p`` weight
  self-corrects, so any rate stays unbiased. Universe samplers are left
  alone — the rewrite's ``universe_rescale`` bakes the chosen ``p`` into
  COUNT-DISTINCT rescaling, so editing it after planning would bias the
  answer, which is exactly the kind of silent wrongness the ladder must
  never introduce.

Downgrade triggers, in the order they are checked:

* **pressure** (pre-flight) — the run queue is nearly full; start one rung
  lower so the cluster sheds load by answering approximately rather than
  by queueing exactly.
* **infeasible-deadline** (pre-flight, re-checked between rungs) — the
  admission EWMA says this rung cannot finish inside the remaining
  budget; don't waste the attempt.
* **budget** (mid-flight) — the engine raised
  :class:`~repro.errors.BudgetExceeded`; a coarser sample has smaller
  intermediates, so step down and retry while the deadline allows.
* **deadline** (mid-flight) — never retried: an expired deadline would
  instantly re-trip on the first checkpoint of the retry. The parallel
  salvage path already turns this into a ``partial`` answer when the plan
  is degradable; otherwise the query fails as ``cancelled.deadline``.

Every downgrade is recorded in the reply (``degraded: {rung, reason,
ladder}``) and in ``service.governor.*`` metrics — a governed service
degrades *loudly*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.algebra.addressing import plan_fingerprint
from repro.algebra.logical import LogicalNode, SamplerNode
from repro.engine.governance import GovernanceContext
from repro.errors import BudgetExceeded
from repro.obs import log as obs_log
from repro.samplers.uniform import UniformSpec

_LOG = obs_log.logger("service.governor")

__all__ = ["RUNGS", "GovernorConfig", "QueryGovernor", "coarsen_samplers"]

#: The degradation ladder, most exact first. ``partial`` is terminal and
#: never planned for — it is what the parallel salvage path returns.
RUNGS = ("exact", "quickr", "quickr-coarse", "quickr-select", "partial")

#: Rungs the governor can actually plan and execute.
_PLANNABLE = RUNGS[:-1]


@dataclass(frozen=True)
class GovernorConfig:
    """Policy knobs of the in-flight governor."""

    #: Master switch; disabled = no GovernanceContext, PR-7 behavior.
    enabled: bool = True
    #: Memory budget applied to every query (live intermediate bytes per
    #: execution context); None = unbounded.
    default_memory_budget_bytes: Optional[int] = None
    #: Queue fill fraction above which new queries start one rung lower.
    queue_pressure_fraction: float = 0.75
    #: Multiplier applied to every uniform sampler's rate at the
    #: ``quickr-coarse`` rung.
    coarsen_factor: float = 0.25
    #: Floor under coarsening — a sampler never drops below this rate.
    min_sampler_p: float = 1e-4
    #: Expected fraction of catalog partitions executed at the
    #: ``quickr-select`` rung (the executor's weighted partition
    #: selection); rows are Horvitz-Thompson reweighted so estimates stay
    #: unbiased while CIs widen.
    selection_fraction: float = 0.5
    #: Maximum ladder steps one query may take (pre-flight + mid-flight).
    max_downgrades: int = 2
    #: Safety multiplier on the EWMA runtime estimate when judging whether
    #: a rung fits the remaining deadline budget.
    deadline_safety: float = 1.0


def coarsen_samplers(
    plan: LogicalNode, factor: float, min_p: float = 1e-4
) -> Tuple[LogicalNode, int]:
    """Rebuild ``plan`` with every uniform sampler's rate scaled by
    ``factor`` (floored at ``min_p``); returns ``(new_plan, changed)``.

    Non-uniform samplers pass through untouched (see the module docstring
    for why universe rates are frozen after planning). ``changed == 0``
    means the plan has no headroom at this rung — the caller should treat
    the rung as unavailable rather than re-run an identical plan.
    """
    changed = 0

    def rebuild(node: LogicalNode) -> LogicalNode:
        nonlocal changed
        if node.children:
            node = node.with_children([rebuild(child) for child in node.children])
        if isinstance(node, SamplerNode) and isinstance(node.spec, UniformSpec):
            new_p = max(float(min_p), node.spec.p * float(factor))
            if new_p < node.spec.p:
                changed += 1
                node = node.with_spec(UniformSpec(new_p, seed=node.spec.seed))
        return node

    return rebuild(plan), changed


class QueryGovernor:
    """Walks one admitted query down the degradation ladder.

    Shared by all service workers; stateless between queries apart from
    metrics. Collaborators are passed in (not reached through the service)
    so tests can drive the ladder directly.
    """

    def __init__(self, config, planner, executor, admission, registry):
        self.config = config
        self.planner = planner
        self.executor = executor
        self.admission = admission
        self.registry = registry

    # -- contract creation ----------------------------------------------------
    def governance_for(self, deadline_at: Optional[float]) -> GovernanceContext:
        """The per-query contract, created at submit time."""
        return GovernanceContext(
            deadline_at=deadline_at,
            memory_budget_bytes=self.config.default_memory_budget_bytes,
        )

    # -- pressure -------------------------------------------------------------
    def pressure_reason(self) -> Optional[str]:
        """Why the service is under pressure right now, or None."""
        depth = self.admission.queue_depth
        threshold = (
            self.config.queue_pressure_fraction
            * self.admission.config.max_queue_depth
        )
        if depth >= threshold:
            return f"queue depth {depth} >= {threshold:.0f}"
        return None

    # -- ladder mechanics -----------------------------------------------------
    @staticmethod
    def initial_rung(mode: str) -> str:
        return "exact" if mode == "exact" else "quickr"

    @staticmethod
    def next_rung(rung: str) -> Optional[str]:
        index = _PLANNABLE.index(rung)
        return _PLANNABLE[index + 1] if index + 1 < len(_PLANNABLE) else None

    def _step_down(self, rung: str, query) -> Optional[Tuple[str, LogicalNode]]:
        """The next rung *with an available plan* below ``rung``, walking
        past rungs that add nothing for this query (no uniform sampler to
        coarsen, no partition catalog to select from)."""
        stepped = self.next_rung(rung)
        while stepped is not None:
            plan = self._plan_for(stepped, query)
            if plan is not None:
                return stepped, plan
            stepped = self.next_rung(stepped)
        return None

    def _plan_for(self, rung: str, query) -> Optional[LogicalNode]:
        """The plan for one rung; None when the rung adds nothing (e.g. no
        uniform sampler left to coarsen)."""
        if rung == "exact":
            return self.planner.plan_baseline(query).plan
        if rung == "quickr":
            return self.planner.plan(query).plan
        if rung == "quickr-coarse":
            base = self.planner.plan(query).plan
            coarse, changed = coarsen_samplers(
                base, self.config.coarsen_factor, self.config.min_sampler_p
            )
            return coarse if changed else None
        if rung == "quickr-select":
            # Selection itself happens in the executor (driven by the
            # governance contract); the rung is only available when it can
            # actually fire: a partition catalog on the database and a
            # weighted (uniform/universe) sampled plan.
            database = getattr(self.executor, "database", None)
            if getattr(database, "partition_stats", None) is None:
                return None
            base = self.planner.plan(query).plan
            kinds = {
                node.spec.kind
                for node in base.walk()
                if isinstance(node, SamplerNode)
            }
            if not kinds & {"uniform", "universe"}:
                return None
            coarse, changed = coarsen_samplers(
                base, self.config.coarsen_factor, self.config.min_sampler_p
            )
            return coarse if changed else base
        raise ValueError(f"rung {rung!r} is not plannable")

    def _infeasible(self, rung: str, query_name: str,
                    ctx: GovernanceContext) -> Optional[str]:
        """Whether the EWMA says this rung cannot meet the deadline."""
        remaining = ctx.remaining_seconds()
        if remaining is None or remaining <= 0:
            return None  # no deadline / already expired: check() handles it
        mode = "exact" if rung == "exact" else "quickr"
        estimate = self.admission.estimator.estimate((query_name, mode))
        if estimate is not None and estimate * self.config.deadline_safety > remaining:
            return (
                f"estimated {estimate * 1000:.0f} ms exceeds remaining "
                f"{remaining * 1000:.0f} ms"
            )
        return None

    def _record_downgrade(self, ticket, ladder: List[Dict[str, str]],
                          from_rung: str, to_rung: str, reason: str) -> None:
        ladder.append({"from": from_rung, "to": to_rung, "reason": reason})
        self.registry.counter(
            "service.governor.downgrades", rung=to_rung, reason=reason
        ).inc()
        flight = getattr(ticket, "flight", None)
        if flight is not None:
            flight.note(
                "governor", "downgrade",
                from_rung=from_rung, to_rung=to_rung, reason=reason,
            )
        _LOG.info(
            "downgrading %s (%s): %s -> %s [%s]",
            ticket.query_name, ticket.tenant, from_rung, to_rung, reason,
        )

    # -- the ladder -----------------------------------------------------------
    def run(self, ticket, query) -> Tuple[Any, Optional[Dict[str, Any]]]:
        """Execute one ticket, stepping down the ladder as its contract
        demands; returns ``(result, degraded_info)``.

        ``degraded_info`` is None for an undegraded answer, else
        ``{"rung", "reason", "ladder"}`` — the rung actually served, the
        first downgrade's reason, and the full step list. Governance
        errors that cannot be absorbed (cancellation, an expired deadline
        with nothing salvageable, a budget trip at the bottom rung)
        propagate to the caller typed.
        """
        ctx = ticket.governance
        rung = self.initial_rung(ticket.mode)
        ladder: List[Dict[str, str]] = []

        pressure = self.pressure_reason()
        if pressure is not None:
            step = self._step_down(rung, query)
            if step is not None:
                self._record_downgrade(ticket, ladder, rung, step[0], "pressure")
                rung = step[0]

        while True:
            ctx.check()  # fail fast: queued-cancel or already-expired deadline
            if len(ladder) < self.config.max_downgrades:
                infeasible = self._infeasible(rung, ticket.query_name, ctx)
                if infeasible is not None:
                    step = self._step_down(rung, query)
                    if step is not None:
                        self._record_downgrade(
                            ticket, ladder, rung, step[0], "infeasible-deadline"
                        )
                        rung = step[0]
                        continue
            plan = self._plan_for(rung, query)
            if plan is None:
                # Every step guards plan availability, so this is only
                # reachable if the plan changed under us (it cannot: the
                # planner memoizes); kept as a defensive typed failure.
                raise BudgetExceeded(
                    f"no coarser plan available below rung {rung!r}"
                )
            flight = getattr(ticket, "flight", None)
            if flight is not None:
                flight.plan_fingerprint = plan_fingerprint(plan)
                flight.note(
                    "governor", "attempt",
                    rung=rung, fingerprint=flight.plan_fingerprint[:12],
                )
            ctx.selection_fraction = (
                self.config.selection_fraction if rung == "quickr-select" else None
            )
            try:
                result = self.executor.execute(plan, governance=ctx)
            except BudgetExceeded:
                step = self._step_down(rung, query)
                if (
                    step is None
                    or len(ladder) >= self.config.max_downgrades
                    or ctx.token.cancelled
                    or ctx.expired()
                ):
                    raise
                self._record_downgrade(ticket, ladder, rung, step[0], "budget")
                rung = step[0]
                continue
            break

        degraded_info: Optional[Dict[str, Any]] = None
        if result.degraded:
            # The engine salvaged survivors mid-flight: the terminal rung.
            reason = getattr(result, "abort_reason", None) or "partition-loss"
            self._record_downgrade(ticket, ladder, rung, "partial", reason)
            rung = "partial"
        if ladder:
            degraded_info = {
                "rung": rung,
                "reason": ladder[0]["reason"],
                "ladder": list(ladder),
            }
            self.registry.counter("service.governor.degraded_replies").inc()
        return result, degraded_info
