"""Integration tests for the end-to-end planner."""

import pytest

from repro.engine.executor import Executor
from repro.optimizer.planner import QuickrPlanner
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name


class TestBaselinePlanning:
    def test_baseline_has_no_samplers(self, tiny_tpcds):
        from repro.algebra.analysis import count_samplers

        planner = QuickrPlanner(tiny_tpcds)
        baseline = planner.plan_baseline(query_by_name(tiny_tpcds, "q01"))
        assert count_samplers(baseline.plan) == 0

    def test_baseline_semantics_match_raw_plan(self, tiny_tpcds):
        planner = QuickrPlanner(tiny_tpcds)
        query = query_by_name(tiny_tpcds, "q07")
        executor = Executor(tiny_tpcds)
        raw = executor.execute(query.plan).table
        optimized = executor.execute(planner.plan_baseline(query).plan).table
        def key(t, i):
            return (t.column("i_category_id")[i], t.column("i_category")[i])
        a = {key(raw, i): raw.column("total")[i] for i in range(raw.num_rows)}
        b = {key(optimized, i): optimized.column("total")[i] for i in range(optimized.num_rows)}
        assert a.keys() == b.keys()
        for group in a:
            assert a[group] == pytest.approx(b[group])

    def test_qo_time_positive(self, tiny_tpcds):
        planner = QuickrPlanner(tiny_tpcds)
        assert planner.plan_baseline(query_by_name(tiny_tpcds, "q01")).qo_time_seconds > 0


class TestQuickrPlanning:
    def test_plan_and_baseline_share_relational_prep(self, tiny_tpcds):
        planner = QuickrPlanner(tiny_tpcds)
        query = query_by_name(tiny_tpcds, "q02")
        result = planner.plan(query)
        baseline = planner.plan_baseline(query)
        from tests.core.dominance import core_of

        if result.approximable:
            # Stripping samplers from the Quickr plan should give a plan over
            # the same relations as the baseline (modulo successor rewrites).
            assert core_of(result.plan).output_columns() == baseline.plan.output_columns()

    def test_reorder_toggle(self, tiny_tpcds):
        query = query_by_name(tiny_tpcds, "q01")
        with_reorder = QuickrPlanner(tiny_tpcds, reorder=True).plan_baseline(query)
        without = QuickrPlanner(tiny_tpcds, reorder=False).plan_baseline(query)
        assert with_reorder.plan.output_columns() == without.plan.output_columns()


class TestSharedPlannerUnderThreads:
    """The query service plans from many session threads against one
    planner, so the lazy catalog and the statistics memo are filled
    concurrently. Every value stored is a pure function of its key, so
    whoever wins a race, the plans must be the serial ones."""

    QUERIES = ("q02", "q05", "q07", "q12", "q20")

    def test_concurrent_plans_equal_serial_plans(self):
        import sys
        import threading

        from repro.algebra.addressing import plan_fingerprint
        from repro.workloads.tpcds import generate_tpcds

        db = generate_tpcds(scale=0.25, seed=2)
        queries = [query_by_name(db, name) for name in self.QUERIES]
        serial = QuickrPlanner(db)
        expected = [plan_fingerprint(serial.plan(q).plan) for q in queries]
        assert len(set(expected)) == len(expected)

        shared = QuickrPlanner(db, plan_cache_size=0)  # every call plans anew
        observed, errors = [], []

        def worker(offset):
            try:
                for step in range(len(queries)):
                    index = (offset + step) % len(queries)
                    result = shared.plan(queries[index])
                    observed.append((index, plan_fingerprint(result.plan)))
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        assert len(observed) == len(threads) * len(queries)
        for index, fingerprint in observed:
            assert fingerprint == expected[index], self.QUERIES[index]


def _planned(planner, query):
    result = planner.plan(query)
    return (
        result.plan.key(),
        result.approximable,
        result.alternatives_explored,
        result.estimated_cost.machine_hours,
        result.baseline_cost.machine_hours,
        [(d.spec.key(), d.reason, d.support, d.c1, d.c2) for d in result.decisions],
    )


class TestDecisionsIgnoreQueryOrder:
    """The planner's memos live for one query: planning the suite forward
    and backward with fresh planners gives the same plan, cost and sampler
    decisions for every query."""

    def test_forward_and_reverse_agree(self, tiny_tpcds):
        queries = [query_by_name(tiny_tpcds, name) for name in QUERY_BUILDERS]
        assert len(queries) == 24
        forward, backward = QuickrPlanner(tiny_tpcds), QuickrPlanner(tiny_tpcds)
        ahead = {q.name: _planned(forward, q) for q in queries}
        behind = {q.name: _planned(backward, q) for q in reversed(queries)}
        for name, planned in ahead.items():
            assert planned == behind[name], name
