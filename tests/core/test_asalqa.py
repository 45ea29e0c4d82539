"""Integration tests for ASALQA: end-to-end sampled plan generation."""

import numpy as np
import pytest

from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.core.asalqa import Asalqa, AsalqaOptions
from repro.engine.executor import Executor
from repro.stats.catalog import Catalog
from repro.workloads.tpcds import generate_tpcds, query_by_name


@pytest.fixture(scope="module")
def tpcds():
    return generate_tpcds(scale=0.25, seed=2)


@pytest.fixture(scope="module")
def optimizer(tpcds):
    return Asalqa(Catalog(tpcds))


class TestPlanDecisions:
    def test_star_query_gets_a_sampler(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q02"))
        assert result.approximable
        assert result.sampler_kinds()

    def test_fig1_query_gets_universe_family(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q12"))
        assert result.approximable
        assert "universe" in result.sampler_kinds()
        # All live universe samplers share one probability (the family rule).
        universes = [s for s in result.sampler_specs if s.kind == "universe"]
        assert len({u.p for u in universes}) == 1
        assert sum(1 for u in universes if u.emit_weight) == 1

    def test_min_max_query_unapproximable(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q18"))
        assert not result.approximable
        assert result.plan.key() == result.baseline_plan.key()

    def test_per_customer_grouping_unapproximable(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q21"))
        assert not result.approximable

    def test_estimated_gain_positive_when_approximable(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q02"))
        assert result.estimated_gain() > 1.0

    def test_qo_time_recorded(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q02"))
        assert result.qo_time_seconds > 0

    def test_summary_fields(self, tpcds, optimizer):
        summary = optimizer.optimize(query_by_name(tpcds, "q02")).summary()
        for key in ("query", "approximable", "samplers", "estimated_gain", "alternatives", "qo_time_s"):
            assert key in summary


class TestAnswersAreAccurate:
    def test_sampled_answer_close_to_exact(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q02"))
        executor = Executor(tpcds)
        exact = executor.execute(result.baseline_plan).table
        approx = executor.execute(result.plan).table
        truth = dict(zip(exact.column("i_category").tolist(), exact.column("agg1").tolist()))
        got = dict(zip(approx.column("i_category").tolist(), approx.column("agg1").tolist()))
        assert set(got) == set(truth)  # no missed groups
        errors = [abs(got[k] - truth[k]) / abs(truth[k]) for k in truth]
        assert float(np.median(errors)) < 0.15

    def test_ci_columns_in_sampled_answer(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q02"))
        table = Executor(tpcds).execute(result.plan).table
        assert table.has_column("agg1__ci")

    def test_unapproximable_answer_is_exact(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q18"))
        executor = Executor(tpcds)
        exact = executor.execute(result.baseline_plan).table
        got = executor.execute(result.plan).table
        np.testing.assert_array_equal(exact.column("max_price"), got.column("max_price"))


class TestBaselineGuard:
    def test_sampled_plan_never_costlier_than_baseline(self, tpcds, optimizer):
        for name in ("q02", "q07", "q12", "q15", "q19"):
            result = optimizer.optimize(query_by_name(tpcds, name))
            if result.approximable:
                assert result.estimated_cost.machine_hours < result.baseline_cost.machine_hours


class TestExploration:
    def test_alternatives_deduplicated(self, tpcds):
        options = AsalqaOptions(max_alternatives=64)
        optimizer = Asalqa(Catalog(tpcds), options)
        from repro.core.seeding import seed_samplers

        seeded, _ = seed_samplers(query_by_name(tpcds, "q12").plan)
        plans = optimizer._explore(seeded)
        keys = [p.key() for p in plans]
        assert len(keys) == len(set(keys))

    def test_alternative_cap_respected(self, tpcds):
        options = AsalqaOptions(max_alternatives=5)
        optimizer = Asalqa(Catalog(tpcds), options)
        result = optimizer.optimize(query_by_name(tpcds, "q12"))
        assert result.alternatives_explored <= 5


class TestScalarQueries:
    def test_scalar_aggregate_sampled(self, tpcds, optimizer):
        result = optimizer.optimize(query_by_name(tpcds, "q15"))
        assert result.approximable
        table = Executor(tpcds).execute(result.plan).table
        assert table.num_rows == 1

    def test_no_aggregate_query_unapproximable(self, tpcds, optimizer):
        query = scan(tpcds, "store_sales").where(col("ss_quantity") > 5).build("raw_filter")
        result = optimizer.optimize(query)
        assert not result.approximable


class TestUsedPlanner:
    """Cached node keys, the statistics memo and the lazily filled catalog
    carry over from one query to the next; they may never change what a
    fresh planner would decide."""

    def test_a_used_planner_decides_what_a_fresh_one_does(self, tpcds, optimizer):
        for name in ("q02", "q05", "q12", "q20"):
            query = query_by_name(tpcds, name)
            used, fresh = optimizer.optimize(query), Asalqa(Catalog(tpcds)).optimize(query)
            assert used.plan.key() == fresh.plan.key()
            assert used.estimated_cost == fresh.estimated_cost
            assert used.alternatives_explored == fresh.alternatives_explored
            assert [(d.spec.key(), d.c1, d.c2, d.reason) for d in used.decisions] == [
                (d.spec.key(), d.c1, d.c2, d.reason) for d in fresh.decisions
            ]
