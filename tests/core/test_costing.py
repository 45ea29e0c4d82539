"""Unit tests for the costing pass (Section 4.2.6): C1/C2 checks, physical
sampler choice, global universe coordination, nesting suppression."""

import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import Join, SamplerNode, Select
from repro.core.costing import (
    CostingOptions,
    choose_physical,
    materialize_plan,
)
from repro.core.sampler_state import SamplerState
from repro.samplers.base import PassThroughSpec
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from repro.stats.catalog import Catalog
from repro.stats.derivation import StatsDeriver


@pytest.fixture()
def deriver(sales_db):
    return StatsDeriver(Catalog(sales_db))


@pytest.fixture()
def sales_stats(sales_db, deriver):
    return deriver.stats_for(scan(sales_db, "sales").node)


OPTS = CostingOptions()


class TestChoosePhysical:
    def test_high_support_gets_uniform(self, sales_stats):
        # 20k rows over 5 categories worth of support via i_cat? use s_item
        # with 40 strata: support 500 >= needed/max_p.
        state = SamplerState(strat_cols=frozenset({"g"}))  # unknown col -> fallback DV
        state = SamplerState(strat_cols=frozenset())
        decision = choose_physical(state, sales_stats, OPTS, seed=1)
        assert isinstance(decision.spec, UniformSpec)
        assert decision.c1 and decision.c2

    def test_probability_sized_by_requirement(self, sales_stats):
        decision = choose_physical(SamplerState(), sales_stats, OPTS, seed=1)
        needed = OPTS.required_rows_per_group(1.0)
        assert decision.spec.p == pytest.approx(
            min(OPTS.max_probability, needed / sales_stats.rows), rel=0.3
        )

    def test_probability_capped_at_max(self, sales_stats):
        opts = CostingOptions(k=30, error_z=0.1)
        decision = choose_physical(SamplerState(), sales_stats, opts, seed=1)
        assert decision.spec.p <= opts.max_probability

    def test_universe_when_u_required(self, sales_stats):
        # Only 500 customers exist: relax the variance target so the
        # key-subspace support check passes (p * 500 >= k).
        opts = CostingOptions(error_z=0.3)
        state = SamplerState(univ_cols=frozenset({"s_cust"}))
        decision = choose_physical(state, sales_stats, opts, seed=1)
        assert isinstance(decision.spec, UniverseSpec)
        assert decision.spec.columns == ("s_cust",)

    def test_universe_infeasible_with_few_key_values(self, sales_stats):
        # At the default variance target, 500 key values per group are not
        # enough for p <= 0.1: the sampler must decline.
        state = SamplerState(univ_cols=frozenset({"s_cust"}))
        decision = choose_physical(state, sales_stats, OPTS, seed=1)
        assert isinstance(decision.spec, PassThroughSpec)

    def test_thin_stratification_gets_distinct(self, sales_stats):
        # s_cust x s_day: 500 * 365 strata over 20k rows -> support ~0.1.
        state = SamplerState(strat_cols=frozenset({"s_cust", "s_day"}))
        decision = choose_physical(state, sales_stats, OPTS, seed=1)
        # Leak would exceed half the input: pass-through.
        assert isinstance(decision.spec, PassThroughSpec)

    def test_moderate_stratification_gets_distinct(self, sales_db, deriver):
        stats = deriver.stats_for(scan(sales_db, "sales").node)
        state = SamplerState(strat_cols=frozenset({"s_cust"}))  # 500 strata, 40/stratum
        opts = CostingOptions(k=10)  # delta*strata must stay below half the input
        decision = choose_physical(state, stats, opts, seed=1)
        assert isinstance(decision.spec, DistinctSpec)
        assert set(decision.spec.columns) == {"s_cust"}

    def test_excessive_delta_leak_declines(self, sales_db, deriver):
        # With the default delta = 30 the leak (30 * 500 strata) exceeds
        # half the 20k input: no data reduction, pass-through.
        stats = deriver.stats_for(scan(sales_db, "sales").node)
        state = SamplerState(strat_cols=frozenset({"s_cust"}))
        decision = choose_physical(state, stats, OPTS, seed=1)
        assert isinstance(decision.spec, PassThroughSpec)

    def test_dissonance_gives_passthrough(self, sales_stats):
        state = SamplerState(
            strat_cols=frozenset({"s_cust"}), univ_cols=frozenset({"s_cust"})
        )
        decision = choose_physical(state, sales_stats, OPTS, seed=1)
        assert isinstance(decision.spec, PassThroughSpec)

    def test_empty_input_passthrough(self, sales_db, deriver):
        from repro.algebra.expressions import col

        empty = scan(sales_db, "sales").where(col("s_qty") > 10_000).node
        stats = deriver.stats_for(empty)
        stats = stats.with_rows(0.0)
        decision = choose_physical(SamplerState(), stats, OPTS, seed=1)
        assert isinstance(decision.spec, PassThroughSpec)

    def test_distinct_delta_inflated_by_downstream_selectivity(self, sales_db, deriver):
        stats = deriver.stats_for(scan(sales_db, "sales").node)
        state = SamplerState(strat_cols=frozenset({"s_cust"}), ds=0.5)
        decision = choose_physical(state, stats, OPTS, seed=1)
        if isinstance(decision.spec, DistinctSpec):
            assert decision.spec.delta == pytest.approx(OPTS.k / 0.5, rel=0.1)


class TestRequiredRows:
    def test_variance_term_binds_for_high_cv(self):
        opts = CostingOptions()
        assert opts.required_rows_per_group(2.0) > opts.required_rows_per_group(0.5)
        assert opts.required_rows_per_group(0.01) == opts.k


class TestMaterializePlan:
    def test_universe_family_shares_parameters(self, sales_db, deriver):
        join = Join(
            scan(sales_db, "sales").node, scan(sales_db, "returns").node, ["s_cust"], ["r_cust"]
        )
        left = SamplerNode(join.left, SamplerState(univ_cols=frozenset({"s_cust"}), family=9))
        right = SamplerNode(join.right, SamplerState(univ_cols=frozenset({"r_cust"}), family=9))
        plan = join.with_children([left, right])
        physical, decisions = materialize_plan(plan, deriver, CostingOptions(error_z=0.3))
        specs = [
            n.spec for n in physical.walk() if isinstance(n, SamplerNode)
        ]
        assert all(isinstance(s, UniverseSpec) for s in specs)
        assert specs[0].p == specs[1].p
        assert specs[0].seed == specs[1].seed
        assert sum(1 for s in specs if s.emit_weight) == 1

    def test_unsatisfied_family_degrades_to_passthrough(self, sales_db, deriver):
        join = Join(
            scan(sales_db, "sales").node, scan(sales_db, "returns").node, ["s_cust"], ["r_cust"]
        )
        # Right member demands stratification so fine it cannot be universe.
        left = SamplerNode(join.left, SamplerState(univ_cols=frozenset({"s_cust"}), family=3))
        right = SamplerNode(
            join.right,
            SamplerState(
                univ_cols=frozenset({"r_cust"}),
                strat_cols=frozenset({"r_item", "r_cust", "r_amount"}),
                family=3,
            ),
        )
        plan = join.with_children([left, right])
        physical, decisions = materialize_plan(plan, deriver)
        assert [type(d.spec) for d in decisions] == [PassThroughSpec, PassThroughSpec]
        assert physical.key() == join.key()  # pass-throughs are not in the plan

    def test_nested_sampler_suppressed_keeping_deeper(self, sales_db, deriver):
        base = scan(sales_db, "sales").node
        inner = SamplerNode(base, SamplerState())
        outer = SamplerNode(inner, SamplerState())
        physical, decisions = materialize_plan(outer, deriver)
        assert isinstance(decisions[0].spec, PassThroughSpec)  # outer suppressed
        assert not isinstance(decisions[1].spec, PassThroughSpec)  # deeper kept
        assert isinstance(physical, SamplerNode) and physical.spec is decisions[1].spec
        assert physical.child is base

    def test_passthrough_samplers_are_dropped(self, sales_db, deriver):
        base = scan(sales_db, "sales").node
        # Dissonant: every stratification column is also a universe column.
        state = SamplerState(strat_cols=frozenset({"s_cust"}), univ_cols=frozenset({"s_cust"}))
        plan = Select(SamplerNode(base, state), col("s_amount") > 0)
        physical, (decision,) = materialize_plan(plan, deriver)
        assert isinstance(decision.spec, PassThroughSpec)
        assert physical.key() == Select(base, col("s_amount") > 0).key()

    def test_decisions_are_shared_not_changed(self, sales_db, deriver):
        """A memoised decision is handed out as is; the global pass
        overrules a family member with a new decision, not by editing."""
        join = Join(
            scan(sales_db, "sales").node, scan(sales_db, "returns").node, ["s_cust"], ["r_cust"]
        )
        left = SamplerNode(join.left, SamplerState(univ_cols=frozenset({"s_cust"}), family=9))
        right = SamplerNode(join.right, SamplerState(univ_cols=frozenset({"r_cust"}), family=9))
        plan = join.with_children([left, right])
        memo = {}
        _, first = materialize_plan(plan, deriver, CostingOptions(error_z=0.3), memo)
        tentative = {id(d): (d.spec, d.reason) for d in memo.values()}
        _, second = materialize_plan(plan, deriver, CostingOptions(error_z=0.3), memo)
        assert {id(d): (d.spec, d.reason) for d in memo.values()} == tentative
        assert [d.spec.key() for d in first] == [d.spec.key() for d in second]
        shared = {id(d) for d in memo.values()}
        assert not shared & {id(d) for d in first}  # both members were coordinated
