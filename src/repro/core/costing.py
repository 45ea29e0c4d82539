"""Costing sampled expressions: turning logical sampler states into physical
samplers (paper Section 4.2.6).

Quickr uses two high-level simplifications, which we keep:

* sampling probability is never allowed above ``MAX_PROBABILITY = 0.1``
  (otherwise the gain is not worth the risk);
* the error goal is fixed: with high probability miss no groups and keep
  aggregates within +-10% of truth.

Meeting the goal reduces to two checks over the derived statistics at the
sampler's input:

* **C1** — is the stratification requirement S empty, or can some
  probability ``p <= 0.1`` give every distinct value of S at least ``k``
  expected rows? Support is ``rows / NumDV(S) * ds * sfm``.
* **C2** — is the universe requirement U empty?

C1 and C2  -> uniform sampler with the smallest adequate p.
C1 and !C2 -> universe sampler on U (stratification needs are met).
!C1 and C2 -> distinct sampler on S, if there is any data reduction
              (at least ``K_LOW = 3`` rows per stratum).
otherwise  -> pass-through (the query sub-plan is not sampled).

``k = 30`` because ~30 samples make the central-limit confidence intervals
meaningful; the paper's sweep shows plans are stable for k in [5, 100]
(we reproduce that sweep in the ablation benchmarks).

The module also performs the bottom-up *global* pass (Appendix A): paired
universe samplers on the two inputs of a join must end up with identical
columns-count, probability and seed, and nested samplers are forbidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.algebra.logical import LogicalNode, SamplerNode
from repro.core.sampler_state import SamplerState
from repro.samplers.base import PassThroughSpec, SamplerSpec
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from repro.stats.derivation import NodeStats, StatsDeriver

__all__ = ["CostingOptions", "SamplerDecision", "choose_physical", "materialize_plan"]

#: The paper's hard cap on sampling probability.
MAX_PROBABILITY = 0.1

#: Minimum expected rows per answer group (central-limit support), k.
SUPPORT_K = 30

#: Minimum rows per stratum for the distinct sampler to be worthwhile, k_l.
K_LOW = 3


@dataclass(frozen=True)
class CostingOptions:
    """Tunables of the costing pass (defaults are the paper's)."""

    k: int = SUPPORT_K
    max_probability: float = MAX_PROBABILITY
    k_low: int = K_LOW
    min_probability: float = 1e-4
    distinct_reservoir: int = 10
    seed: int = 2016
    #: Target relative error for aggregate values (the paper's +-10%).
    error_target: float = 0.10
    #: z-score for the error target; 1.15 aims for ~80% of aggregates within
    #: the target, matching the paper's reported error profile.
    error_z: float = 1.15
    #: Clamp for the per-column coefficient-of-variation estimate.
    cv_bounds: tuple = (0.5, 2.5)

    def required_rows_per_group(self, value_cv: float) -> float:
        """Samples per group needed for both group coverage (k) and the
        aggregate-value error target: with coefficient of variation cv,
        the relative standard error after n samples is ~ cv / sqrt(n), so
        n >= (z * cv / error_target)^2.

        The paper sizes p purely by k = 30 because at petabyte scale even
        p = 0.1 leaves every group with thousands of rows; at laptop scale
        the variance term binds, so we make the dependence explicit ("if
        the underlying data value has high variance, more support is
        needed", Section 3).
        """
        variance_rows = (self.error_z * value_cv / self.error_target) ** 2
        return max(float(self.k), variance_rows)


@dataclass
class SamplerDecision:
    """Why a seeded sampler became the physical sampler it became."""

    state: SamplerState
    spec: SamplerSpec
    support: float
    c1: bool
    c2: bool
    reason: str


def _support(state: SamplerState, stats: NodeStats, include_optional: bool = True) -> float:
    """Expected rows per distinct value of S reaching the answer.

    Columns that entered S only because of COUNT DISTINCT and that the
    universe requirement covers are excluded: the universe sampler
    estimates those counts exactly by rescaling (Table 8), so they impose
    no stratification burden (Section 4.2.4). With
    ``include_optional=False``, the optionally-added columns (from *IF
    conditions and COUNT DISTINCT, Figure 4) are dropped too — losing them
    widens variance for the conditional aggregates but cannot make answer
    groups disappear.
    """
    if stats.rows <= 0:
        return 0.0
    effective = state.strat_cols - (state.cd_cols & state.univ_cols)
    if not include_optional:
        # COUNT DISTINCT columns stay: dropping them does not merely widen
        # variance, it biases the distinct count downward (a uniform sample
        # simply does not see most values). Only universe sampling on the
        # counted column (handled above) or stratification can prevent that.
        effective = effective - (state.opt_cols - state.cd_cols)
    strata = stats.distinct_independent(effective) if effective else 1.0
    return stats.rows / max(1.0, strata) * state.ds * state.sfm


def _value_cv(state: SamplerState, stats: NodeStats, options: CostingOptions) -> float:
    """Coefficient of variation of the aggregated values, from the catalog.

    The worst (largest) per-column cv among the QVS columns visible at the
    sampler's input; 1.0 when none are visible (e.g. the sampler was pushed
    to the join side that does not carry the aggregated column).
    """
    lo, hi = options.cv_bounds
    best = 1.0
    for column in state.value_cols:
        source = stats.lineage.get(column)
        if source is None or len(source[1]) != 1:
            continue
        table, base_cols = source
        (base_col,) = base_cols
        cv = stats.catalog.value_skew(table, base_col)
        if cv > best:
            best = cv
    return min(hi, max(lo, best))


def choose_physical(
    state: SamplerState,
    stats: NodeStats,
    options: CostingOptions,
    seed: int,
) -> SamplerDecision:
    """Section 4.2.6's check sequence for one sampler."""
    needed_rows = options.required_rows_per_group(_value_cv(state, stats, options))
    support = _support(state, stats)
    c1 = support > 0 and needed_rows / support <= options.max_probability
    if not c1 and state.opt_cols:
        # Retry without the optional stratification columns (Figure 4: *IF
        # and COUNT DISTINCT columns are only optionally added to S).
        relaxed = _support(state, stats, include_optional=False)
        if relaxed > 0 and needed_rows / relaxed <= options.max_probability:
            support = relaxed
            c1 = True
    c2 = not state.univ_cols

    if support <= 0:
        return SamplerDecision(state, PassThroughSpec(), support, c1, c2, "empty input")

    needed_p = needed_rows / support
    p = min(options.max_probability, max(options.min_probability, needed_p))

    if c1 and c2:
        return SamplerDecision(state, UniformSpec(p, seed=seed), support, c1, c2, "C1 and C2: uniform")
    if c1 and not c2:
        if state.dissonant():
            return SamplerDecision(state, PassThroughSpec(), support, c1, c2, "dissonant strat/universe")
        # Under universe sampling the per-group support that matters is the
        # number of distinct *key-subspace values* per group (Proposition 4:
        # a group survives with probability 1 - (1-p)^|G(C)|, and variance
        # scales with the kept key values, not the kept rows). Size p so
        # that p * |G(C)| >= k as well.
        universe_values = stats.distinct(state.univ_cols)
        universe_support = min(universe_values, support)
        if universe_support <= 0 or needed_rows / universe_support > options.max_probability:
            return SamplerDecision(
                state, PassThroughSpec(), support, c1, c2, "too few key-subspace values per group"
            )
        p_univ = min(
            options.max_probability,
            max(options.min_probability, needed_rows / universe_support),
        )
        spec = UniverseSpec(tuple(sorted(state.univ_cols)), p_univ, seed=seed)
        return SamplerDecision(state, spec, support, c1, c2, "C1 only: universe")
    if not c1 and c2:
        # Prefer stratifying on the full requirement; fall back to the
        # required-only subset when the optional columns alone make the
        # strata too numerous for any data reduction.
        # A stratum's kept rows must still reach the answer: downstream
        # selections/joins thin them by ds (and sfm rescales the stratum
        # count), so the frequency floor delta is inflated accordingly —
        # keeping delta rows of which 2% survive protects nothing.
        reach = min(1.0, state.ds * state.sfm)
        effective_delta = int(math.ceil(options.k / max(reach, 1e-6)))
        for columns, label in (
            (state.strat_cols, "C2 only: distinct"),
            (
                state.strat_cols - (state.opt_cols - state.cd_cols),
                "C2 only: distinct (optional strata dropped)",
            ),
        ):
            if not columns:
                continue
            strata = stats.distinct_independent(columns)
            per_stratum = stats.rows / max(1.0, strata) * state.ds * state.sfm
            leak_fraction = effective_delta * strata / max(1.0, stats.rows)
            if per_stratum >= options.k_low and leak_fraction < 0.5:
                spec = DistinctSpec(
                    tuple(sorted(columns)),
                    delta=effective_delta,
                    p=options.max_probability,
                    seed=seed,
                    reservoir_size=options.distinct_reservoir,
                )
                return SamplerDecision(state, spec, support, c1, c2, label)
        return SamplerDecision(state, PassThroughSpec(), support, c1, c2, "no data reduction")
    return SamplerDecision(state, PassThroughSpec(), support, c1, c2, "stratification unmet under universe")


def _overruled(decision: SamplerDecision, spec: SamplerSpec, why: str = "") -> SamplerDecision:
    """``decision`` with its spec replaced by the global pass."""
    return replace(decision, spec=spec, reason=decision.reason + why)


def logical_sampler_sites(
    plan: LogicalNode, path: tuple = (), sites: Optional[list] = None
) -> List[Tuple[SamplerNode, tuple]]:
    """Pre-order ``(node, address)`` of the logical samplers in ``plan``."""
    sites = [] if sites is None else sites
    if isinstance(plan, SamplerNode) and isinstance(plan.spec, SamplerState):
        sites.append((plan, path))
    for index, child in enumerate(plan.children):
        logical_sampler_sites(child, path + (index,), sites)
    return sites


def _rebuild(
    node: LogicalNode, path: tuple, specs: Dict[tuple, SamplerSpec], on_way: Set[tuple]
) -> LogicalNode:
    """``node`` (at ``path``) with the logical sampler at each address of
    ``specs`` replaced by its physical spec, or dropped for a pass-through.

    ``on_way`` holds every address at or above one of those: only the way
    down to a sampler is rebuilt, and a subtree without one is returned as
    it is, so alternatives keep sharing it, key and statistics included.
    """
    if path not in on_way:
        return node
    children = [
        _rebuild(child, path + (index,), specs, on_way)
        for index, child in enumerate(node.children)
    ]
    spec = specs.get(path)
    if spec is None:
        return node.with_children(children)
    return children[0] if isinstance(spec, PassThroughSpec) else SamplerNode(children[0], spec)


def materialize_plan(
    plan: LogicalNode,
    deriver: StatsDeriver,
    options: Optional[CostingOptions] = None,
    memo: Optional[Dict[tuple, SamplerDecision]] = None,
) -> Tuple[LogicalNode, List[SamplerDecision]]:
    """Replace every logical sampler state with a physical sampler.

    Performs the bottom-up global pass: members of a universe *family*
    (the two inputs of a join sampled together) receive identical
    probability and seed, and the whole family degrades to pass-through if
    any member cannot be a universe sampler. Nested samplers are
    suppressed by making the outer one a pass-through.

    Returns the physical plan, which holds no pass-through sampler, and one
    decision per sampler in pre-order.

    ``memo`` (the caller's, one per query) keeps :func:`choose_physical`'s
    decision per (input, state, seed): alternatives share most samplers.
    Decisions are therefore shared and never changed: the global pass
    overrules one with a new decision.

    The tree walks are module-level functions: a recursive closure refers
    to itself through its own cell, a cycle that would pin ``deriver`` (and
    through it the catalog and database) until a garbage collection.
    """
    options = options or CostingOptions()
    memo = {} if memo is None else memo

    # First pass: tentative decisions per sampler. Seeds count samplers in
    # post-order, which is ascending address once every address is made to
    # sort after the addresses below it.
    sites = logical_sampler_sites(plan)
    samplers = sorted(sites, key=lambda site: site[1] + (math.inf,))
    decisions: Dict[tuple, SamplerDecision] = {}
    for ordinal, (node, path) in enumerate(samplers, start=1):
        seed = options.seed * 1_000_003 + ordinal
        key = (node.child.key(), node.spec, seed)
        decision = memo.get(key)
        if decision is None:
            decision = memo[key] = choose_physical(
                node.spec, deriver.stats_for(node.child), options, seed
            )
        decisions[path] = decision

    # Family coordination.
    families: Dict[int, List[tuple]] = {}
    for path, decision in decisions.items():
        if decision.state.family is not None:
            families.setdefault(decision.state.family, []).append(path)
    for family, members in families.items():
        specs = [decisions[path].spec for path in members]
        if len(members) < 2 or not all(isinstance(s, UniverseSpec) for s in specs):
            for path in members:
                decisions[path] = _overruled(
                    decisions[path], PassThroughSpec(), " (universe family unsatisfied)"
                )
        else:
            # Every member's probability is the smallest meeting *its* C1
            # bound; the pair must share one p, so take the largest of the
            # lower bounds (still capped at MAX_PROBABILITY by each member).
            shared_p = max(s.p for s in specs)
            shared_seed = options.seed * 7_000_003 + family
            for rank, (path, spec) in enumerate(zip(members, specs)):
                # The family shares one key subspace; a joined row's
                # inclusion probability is p once, so only the first member
                # emits the 1/p Horvitz-Thompson weight.
                decisions[path] = _overruled(decisions[path], UniverseSpec(
                    spec.columns, shared_p, seed=shared_seed, emit_weight=(rank == 0)
                ))

    # Nested samplers are forbidden (Appendix A). When two samplers end up
    # on the same root-to-leaf path, keep the *deeper* one — it is closer
    # to the input, where gains are largest — and pass the outer through.
    # Post-order settles everything below a sampler before the sampler.
    live: List[tuple] = []
    for path, decision in decisions.items():
        if isinstance(decision.spec, PassThroughSpec):
            continue
        if any(below[: len(path)] == path for below in live):
            decisions[path] = _overruled(
                decision, PassThroughSpec(), " (outer of nested pair suppressed)"
            )
        else:
            live.append(path)

    specs = {path: decision.spec for path, decision in decisions.items()}
    on_way = {path[:depth] for path in specs for depth in range(len(path) + 1)}
    physical = _rebuild(plan, (), specs, on_way)
    return physical, [decisions[path] for _, path in sites]
