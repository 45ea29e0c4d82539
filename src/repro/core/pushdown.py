"""Sampler push-down transformation rules (paper Sections 4.2.3-4.2.5).

Each rule takes a sampler (its logical state) sitting directly above an
operator and returns alternative subtrees where the sampler has moved below
that operator, with the state adjusted so accuracy is provably no worse
(dominance, Section 4.3) or the loss is accounted for in ``ds``/``sfm``.

* ``push_past_select`` — Figure 5: alternative A1 stratifies additionally
  on the predicate columns (no accuracy loss, possibly less gain);
  alternative A2 keeps the state but scales the downstream selectivity
  (more gain, more risk — priced by the costing pass).
* ``push_past_project`` — Proposition 7: strictly better; sampler columns
  are renamed through the projection (stratification on a computed column
  falls back to its generating columns, which is a finer stratification).
* ``push_past_join`` — Figures 6/7: the ``OneSideHelper`` /
  ``PushSamplerOnOneSide`` / ``PushSamplerOntoBothSides`` pseudocode,
  including the sfm correction when stratification columns are replaced by
  join keys and the introduction of universe requirements when sampling
  both inputs.
* ``push_past_union`` — the sampler clones into every branch.

The second half of the module is **prune-predicate extraction**: turning a
query predicate into per-partition feasibility checks against the exact
column summaries of the partition catalog (:mod:`repro.stats.catalog`). The
contract is tri-state collapsed to a sound boolean:
:func:`partition_feasible` returns ``False`` only when *no row of the
partition can possibly satisfy the predicate* — every shape the analysis
does not understand returns ``True`` (retain), so pruning never changes an
answer, it only skips work (Rong et al., §3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional

from repro.algebra.expressions import And, Cmp, Col, Expr, IsIn, Lit, Not, Or
from repro.algebra.logical import Join, LogicalNode, Project, SamplerNode, Select, UnionAll
from repro.core.sampler_state import SamplerState
from repro.stats.derivation import StatsDeriver, estimate_selectivity

__all__ = [
    "push_past_select",
    "push_past_project",
    "push_past_join",
    "push_past_union",
    "alternatives_below",
    "prune_conjuncts",
    "partition_feasible",
]

#: Enumerate all subsets of the remaining join keys only up to this size;
#: larger key sets fall back to the two extreme choices (all or none).
MAX_KEY_SUBSET_ENUMERATION = 3


def push_past_select(state: SamplerState, select: Select, deriver: StatsDeriver) -> List[LogicalNode]:
    """Figure 5: generate A1 (stratify on predicate columns) and A2 (scale ds)."""
    predicate_cols = frozenset(select.predicate.columns())
    child = select.child
    alternatives: List[LogicalNode] = []
    missing = predicate_cols - state.strat_cols

    if not missing:
        # Already stratified on every predicate column: pushing is free.
        pushed = SamplerNode(child, state)
        return [Select(pushed, select.predicate)]

    # A1: add the predicate columns to the stratification requirement.
    a1_state = state.with_strat(missing)
    if not a1_state.dissonant():
        alternatives.append(Select(SamplerNode(child, a1_state), select.predicate))

    # A2: keep the requirement, penalize downstream selectivity. When some
    # predicate columns are already stratified the answer loses less, so the
    # penalty shrinks accordingly (the paper's heuristic in Section 4.2.3).
    selectivity = estimate_selectivity(select.predicate, deriver.stats_for(child))
    exponent = len(missing) / max(1, len(predicate_cols))
    a2_state = state.scaled_ds(selectivity**exponent)
    if not a2_state.dissonant() and not (state.univ_cols & predicate_cols):
        alternatives.append(Select(SamplerNode(child, a2_state), select.predicate))
    elif not a2_state.dissonant() and _small_overlap(state.univ_cols, predicate_cols):
        # Rule V2: universe samplers may cross a select only when the
        # predicate barely touches the universe columns.
        alternatives.append(Select(SamplerNode(child, a2_state), select.predicate))
    return alternatives


def _small_overlap(left: frozenset, right: frozenset) -> bool:
    overlap = left & right
    if not overlap:
        return True
    return len(overlap) < min(len(left), len(right))


def push_past_project(state: SamplerState, project: Project, deriver: StatsDeriver) -> List[LogicalNode]:
    """Proposition 7: push below a projection, renaming sampler columns.

    Universe columns must be pure renames (hash inputs have to be the exact
    key values). Stratification on a computed column falls back to the
    columns that generated it — a finer stratification, hence no worse.
    """
    mapping = project.mapping
    new_strat = set()
    for name in state.strat_cols:
        expr = mapping.get(name)
        if expr is None:
            return []
        if isinstance(expr, Col):
            new_strat.add(expr.name)
        else:
            inputs = expr.columns()
            if not inputs:
                continue  # stratifying on a constant is vacuous
            new_strat |= inputs
    new_univ = set()
    for name in state.univ_cols:
        expr = mapping.get(name)
        if not isinstance(expr, Col):
            return []
        new_univ.add(expr.name)
    new_cd = set()
    for name in state.cd_cols:
        expr = mapping.get(name)
        if isinstance(expr, Col):
            new_cd.add(expr.name)
    new_opt = set()
    for name in state.opt_cols:
        expr = mapping.get(name)
        if expr is None:
            continue
        if isinstance(expr, Col):
            new_opt.add(expr.name)
        else:
            new_opt |= expr.columns()
    new_value = set()
    for name in state.value_cols:
        expr = mapping.get(name)
        if expr is None:
            continue
        if isinstance(expr, Col):
            new_value.add(expr.name)
        else:
            new_value |= expr.columns()
    new_state = replace(
        state,
        strat_cols=frozenset(new_strat),
        univ_cols=frozenset(new_univ),
        cd_cols=frozenset(new_cd) & frozenset(new_strat),
        opt_cols=frozenset(new_opt) & frozenset(new_strat),
        value_cols=frozenset(new_value),
    )
    if new_state.dissonant():
        return []
    return [Project(SamplerNode(project.child, new_state), mapping)]


def push_past_union(state: SamplerState, union: UnionAll, deriver: StatsDeriver) -> List[LogicalNode]:
    """Clone the sampler into every union branch (schemas are identical)."""
    return [UnionAll([SamplerNode(child, state) for child in union.children])]


# -- join rules (Figure 7 pseudocode) -------------------------------------------

def _project_colset(columns: frozenset, source_keys, target_keys) -> frozenset:
    """ProjectColSet: replace columns named in ``source_keys`` with the
    positionally-corresponding names in ``target_keys``."""
    mapping = dict(zip(source_keys, target_keys))
    return frozenset(mapping.get(c, c) for c in columns)


def _prepare_univ_col(univ: frozenset, keys: frozenset) -> Optional[frozenset]:
    """PrepareUnivCol: universe sampling below a join is possible only when
    there is no prior universe requirement or it coincides with the keys."""
    if not univ or univ == keys:
        return keys
    return None


def _one_side_helper(
    state: SamplerState,
    left: LogicalNode,
    right: LogicalNode,
    left_keys,
    right_keys,
    univ_left: frozenset,
    deriver: StatsDeriver,
    memo: Dict[tuple, List[dict]],
) -> List[SamplerState]:
    """OneSideHelper: states for a sampler on ``left`` replacing the sampler
    above ``left JOIN right``.

    Only the universe requirement differs between a join's one-side and
    both-sides pushes, so everything else is computed once per side and
    kept in ``memo`` (the caller's, one per query).
    """
    key = (state, left.key(), left.output_columns(), right.key(), left_keys, right_keys)
    shared = memo.get(key)
    if shared is None:
        shared = memo[key] = _one_side_fields(state, left, right, left_keys, right_keys, deriver)
    alternatives: List[SamplerState] = []
    for fields in shared:
        candidate = replace(state, univ_cols=univ_left, **fields)
        if not candidate.dissonant():
            alternatives.append(candidate)
    return alternatives


def _one_side_fields(
    state: SamplerState,
    left: LogicalNode,
    right: LogicalNode,
    left_keys,
    right_keys,
    deriver: StatsDeriver,
) -> List[dict]:
    """OneSideHelper's universe-independent half: per alternative, the
    state fields other than the universe requirement."""
    left_stats = deriver.stats_for(left)
    right_stats = deriver.stats_for(right)
    left_cols = set(left.output_columns())

    # The join following the (pushed) sampler filters the sampled rows: a
    # left row survives only if the (possibly filtered) right side matches.
    # That reduction reaches the answer, so it scales the downstream
    # selectivity. Fan-out joins (selectivity > 1) are conservatively
    # clamped: ds in the paper only ever shrinks.
    dv_l = max(1.0, left_stats.distinct(left_keys))
    dv_r = max(1.0, right_stats.distinct(_project_colset(frozenset(left_keys), left_keys, right_keys)))
    join_rows = left_stats.rows * right_stats.rows / max(dv_l, dv_r)
    join_selectivity = min(1.0, join_rows / max(1.0, left_stats.rows))

    # Normalize stratification columns into left-side names.
    s_full = _project_colset(state.strat_cols, right_keys, left_keys)
    s_left = frozenset(s_full & left_cols)
    cd_left = _project_colset(state.cd_cols, right_keys, left_keys) & s_full
    opt_left = _project_colset(state.opt_cols, right_keys, left_keys) & s_full
    value_left = frozenset(
        _project_colset(state.value_cols, right_keys, left_keys) & left_cols
    )
    sfm = state.sfm

    missing_strats = s_full - s_left
    missing_keys = frozenset(left_keys) - s_left
    if missing_strats and missing_keys:
        # Replace unavailable stratification columns with the join keys and
        # correct the support estimate: stratifying store_sales on
        # sold_date_sk instead of d_year overstates the number of strata by
        # ~365x, making per-group support look ~365x smaller than it is, so
        # sfm goes *up* by the distinct-count ratio (Section 4.2.4 prose;
        # the ratio is keys-over-replaced-columns, capped by the key count
        # actually present on the right side).
        key_distinct = min(
            left_stats.distinct(missing_keys),
            right_stats.distinct(_project_colset(missing_keys, left_keys, right_keys)),
        )
        replaced_distinct = max(1.0, right_stats.distinct(missing_strats))
        sfm = sfm * max(1.0, key_distinct) / replaced_distinct
        s_left = s_left | frozenset(left_keys)

    remaining_keys = frozenset(left_keys) - s_left
    if len(remaining_keys) <= MAX_KEY_SUBSET_ENUMERATION:
        subsets = [frozenset(c) for r in range(len(remaining_keys) + 1)
                   for c in itertools.combinations(sorted(remaining_keys), r)]
    else:
        subsets = [frozenset(), remaining_keys]

    alternatives: List[dict] = []
    for chosen in subsets:
        skipped = remaining_keys - chosen
        ds = state.ds * join_selectivity
        if skipped:
            dv_left = max(1.0, left_stats.distinct(skipped))
            dv_right = max(
                1.0,
                right_stats.distinct(_project_colset(skipped, left_keys, right_keys)),
            )
            ds = ds / dv_left * min(dv_left, dv_right)
        alternatives.append(dict(
            strat_cols=s_left | chosen,
            sfm=sfm,
            ds=ds,
            cd_cols=frozenset(cd_left & (s_left | chosen)),
            opt_cols=frozenset(opt_left & (s_left | chosen)),
            value_cols=value_left,
        ))
    return alternatives


def push_past_join(
    state: SamplerState,
    join: Join,
    deriver: StatsDeriver,
    family_of: Callable[[Join], int],
    memo: Optional[Dict[tuple, List[dict]]] = None,
) -> List[LogicalNode]:
    """Figures 6/7: push a sampler below one or both inputs of an equi-join.

    ``memo`` keeps the one-side states across calls (see
    :func:`_one_side_helper`); without one, nothing outlives the call.
    """
    memo = {} if memo is None else memo
    alternatives: List[LogicalNode] = []
    left, right = join.left, join.right
    left_cols = set(left.output_columns())
    right_cols = set(right.output_columns())

    # PushSamplerOnOneSide (left, then right by symmetry).
    univ_left = _project_colset(state.univ_cols, join.right_keys, join.left_keys)
    if not (univ_left - left_cols):
        for new_state in _one_side_helper(
            state, left, right, join.left_keys, join.right_keys, univ_left, deriver, memo
        ):
            alternatives.append(join.with_children([SamplerNode(left, new_state), right]))

    univ_right = _project_colset(state.univ_cols, join.left_keys, join.right_keys)
    if not (univ_right - right_cols):
        for new_state in _one_side_helper(
            state, right, left, join.right_keys, join.left_keys, univ_right, deriver, memo
        ):
            alternatives.append(join.with_children([left, SamplerNode(right, new_state)]))

    # PushSamplerOntoBothSides: requires a shared universe requirement.
    u_left = _prepare_univ_col(univ_left, frozenset(join.left_keys))
    u_right = _prepare_univ_col(
        _project_colset(state.univ_cols, join.left_keys, join.right_keys),
        frozenset(join.right_keys),
    )
    if u_left is not None and u_right is not None and join.how == "inner":
        left_states = _one_side_helper(
            state, left, right, join.left_keys, join.right_keys, u_left, deriver, memo
        )
        right_states = _one_side_helper(
            state, right, left, join.right_keys, join.left_keys, u_right, deriver, memo
        )
        for ls in left_states:
            for rs in right_states:
                family = state.family if state.family is not None else family_of(join)
                ls_fam = replace(ls, family=family)
                rs_fam = replace(rs, family=family)
                alternatives.append(
                    join.with_children([SamplerNode(left, ls_fam), SamplerNode(right, rs_fam)])
                )
    return alternatives


def alternatives_below(
    sampler: SamplerNode,
    deriver: StatsDeriver,
    family_of: Callable[[Join], int],
    memo: Optional[Dict[tuple, List[dict]]] = None,
) -> List[LogicalNode]:
    """All one-step push-downs for a sampler node (dispatch by child type);
    ``memo`` as for :func:`push_past_join`."""
    state = sampler.spec
    if not isinstance(state, SamplerState):
        return []
    child = sampler.child
    if isinstance(child, Select):
        return push_past_select(state, child, deriver)
    if isinstance(child, Project):
        return push_past_project(state, child, deriver)
    if isinstance(child, Join):
        return push_past_join(state, child, deriver, family_of, memo)
    if isinstance(child, UnionAll):
        return push_past_union(state, child, deriver)
    return []


# -- prune-predicate extraction (partition catalog, Rong et al.) ----------------

#: Comparison rewrites for ``lit OP col`` -> ``col OP' lit``.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

#: Comparison rewrites for ``NOT (col OP lit)`` -> ``col OP' lit``.
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def prune_conjuncts(predicate: Expr) -> List[Expr]:
    """A predicate as its flat conjunct list (a single-element list when it
    is not a conjunction). Each conjunct prunes independently: a partition
    infeasible for *any* conjunct is infeasible for the whole predicate."""
    if isinstance(predicate, And):
        return predicate.conjuncts()
    return [predicate]


def partition_feasible(predicate: Expr, columns: Mapping[str, object]) -> bool:
    """Can any row of a partition satisfy ``predicate``?

    ``columns`` maps column names to the partition's
    :class:`~repro.stats.catalog.ColumnSummary` (only ``min_value`` /
    ``max_value`` / ``null_count`` / ``values`` are read). Returns ``False`` only on
    proof of infeasibility; unknown expression shapes, missing summaries and
    type mismatches all return ``True`` so the partition is retained.
    """
    if isinstance(predicate, And):
        return all(partition_feasible(c, columns) for c in predicate.conjuncts())
    if isinstance(predicate, Or):
        return partition_feasible(predicate.left, columns) or partition_feasible(
            predicate.right, columns
        )
    if isinstance(predicate, Not):
        child = predicate.child
        if isinstance(child, Cmp):
            return partition_feasible(
                Cmp(_NEGATE[child.op], child.left, child.right), columns
            )
        if isinstance(child, IsIn) and isinstance(child.child, Col):
            summary = columns.get(child.child.name)
            if summary is None or summary.values is None:
                return True
            # NOT IN is infeasible only when every present value is listed.
            return not set(summary.values) <= set(child.values)
        return True
    if isinstance(predicate, Cmp):
        return _cmp_feasible(predicate, columns)
    if isinstance(predicate, IsIn):
        return _isin_feasible(predicate, columns)
    return True


def _cmp_feasible(cmp: Cmp, columns: Mapping[str, object]) -> bool:
    left, op, right = cmp.left, cmp.op, cmp.right
    if isinstance(left, Lit) and isinstance(right, Col):
        left, right = right, left
        op = _FLIP[op]
    if not (isinstance(left, Col) and isinstance(right, Lit)):
        return True
    summary = columns.get(left.name)
    if summary is None:
        return True
    value = right.value
    lo, hi = summary.min_value, summary.max_value
    if lo is None:
        # No non-null values: NaN comparisons are all False — except ``!=``,
        # which every null row vacuously satisfies (NumPy semantics).
        return op == "!=" and summary.null_count > 0
    try:
        if op == "==":
            if summary.values is not None:
                return value in set(summary.values)
            return not (value < lo or value > hi)
        if op == "!=":
            if summary.null_count > 0:
                return True  # a NaN row satisfies any inequality
            if summary.values is not None:
                return any(v != value for v in summary.values)
            return not (lo == hi == value)
        if op == "<":
            return bool(lo < value)
        if op == "<=":
            return bool(lo <= value)
        if op == ">":
            return bool(hi > value)
        if op == ">=":
            return bool(hi >= value)
    except TypeError:
        return True  # incomparable literal/column types: retain
    return True


def _isin_feasible(pred: IsIn, columns: Mapping[str, object]) -> bool:
    if not isinstance(pred.child, Col):
        return True
    summary = columns.get(pred.child.name)
    if summary is None:
        return True
    lo, hi = summary.min_value, summary.max_value
    if lo is None:
        return False  # only nulls (or empty): NaN never matches a value list
    if summary.values is not None:
        present = set(summary.values)
        return any(v in present for v in pred.values)
    try:
        return any(not (v < lo or v > hi) for v in pred.values)
    except TypeError:
        return True
