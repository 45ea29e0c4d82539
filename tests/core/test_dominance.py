"""Tests for sampling dominance: rule table, plan cores, and *empirical*
verification of the switching rule (Proposition 6) end-to-end."""

import pytest

from repro.algebra.aggregates import sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import Aggregate, SamplerNode
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from tests.core.dominance import RULES, core_of, empirical_dominance, reseed_plan


class TestRuleTable:
    def test_paper_rules_present(self):
        for name in ("U1", "U2", "U3", "D1", "D2a", "D2b", "D3a", "V1", "V2", "V3a", "V3b"):
            assert name in RULES

    def test_weak_rules_marked(self):
        assert RULES["D2b"].weak
        assert not RULES["U2"].weak

    def test_switching_rules(self):
        assert "switch-VU" in RULES and "switch-UD" in RULES


class TestCore:
    def test_core_strips_samplers(self, sales_db):
        base = scan(sales_db, "sales").node
        plan = Aggregate(
            SamplerNode(base, UniformSpec(0.1)), ("s_item",), [sum_(col("s_amount"), "rev")]
        )
        assert core_of(plan).key() == Aggregate(base, ("s_item",), [sum_(col("s_amount"), "rev")]).key()

    def test_same_core_different_samplers(self, sales_db):
        base = scan(sales_db, "sales").node
        aggs = [sum_(col("s_amount"), "rev")]
        p1 = Aggregate(SamplerNode(base, UniformSpec(0.1)), ("s_item",), aggs)
        p2 = Aggregate(SamplerNode(base, DistinctSpec(["s_item"], 5, 0.1)), ("s_item",), aggs)
        assert core_of(p1).key() == core_of(p2).key()


class TestReseed:
    def test_reseed_changes_sample(self, sales_db):
        from repro.engine.executor import Executor

        base = scan(sales_db, "sales").node
        plan = Aggregate(
            SamplerNode(base, UniformSpec(0.1, seed=1)), ("s_item",), [sum_(col("s_amount"), "rev")]
        )
        ex = Executor(sales_db)
        a = ex.execute(plan).table.column("rev")
        b = ex.execute(reseed_plan(plan, 99)).table.column("rev")
        assert not (a == b).all()

    def test_reseed_preserves_universe_family(self, sales_db):
        left = SamplerNode(scan(sales_db, "sales").node, UniverseSpec(["s_cust"], 0.2, seed=5))
        right = SamplerNode(
            scan(sales_db, "returns").node, UniverseSpec(["r_cust"], 0.2, seed=5, emit_weight=False)
        )
        from repro.algebra.logical import Join

        join = Join(left.child, right.child, ["s_cust"], ["r_cust"]).with_children([left, right])
        reseeded = reseed_plan(join, 3)
        specs = [n.spec for n in reseeded.walk() if isinstance(n, SamplerNode)]
        assert specs[0].same_subspace_as(specs[1])
        assert specs[0].emit_weight != specs[1].emit_weight


class TestEmpiricalDominance:
    """Proposition 6: Universe => Uniform => Distinct in accuracy order."""

    def _plan(self, sales_db, spec):
        base = scan(sales_db, "sales").node
        return Aggregate(SamplerNode(base, spec), ("s_item",), [sum_(col("s_amount"), "rev")])

    @pytest.mark.slow
    def test_uniform_dominated_by_distinct(self, sales_db):
        p = 0.1
        uniform_plan = self._plan(sales_db, UniformSpec(p, seed=1))
        distinct_plan = self._plan(sales_db, DistinctSpec(["s_item"], delta=30, p=p, seed=1))
        result = empirical_dominance(
            uniform_plan, distinct_plan, sales_db, ("s_item",), "rev", trials=25
        )
        assert result.c_dominates  # distinct never misses a stratified group
        assert result.miss_rate_2 == 0.0

    @pytest.mark.slow
    def test_universe_dominated_by_uniform(self, sales_db):
        p = 0.1
        universe_plan = self._plan(sales_db, UniverseSpec(["s_cust"], p, seed=1))
        uniform_plan = self._plan(sales_db, UniformSpec(p, seed=1))
        result = empirical_dominance(
            universe_plan, uniform_plan, sales_db, ("s_item",), "rev", trials=25
        )
        # Uniform has no worse variance and no worse coverage than universe.
        assert result.v_dominates
        assert result.c_dominates
