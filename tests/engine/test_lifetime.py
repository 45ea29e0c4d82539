"""A dropped database must be freed by reference counting alone.

Ad-hoc traffic builds a database, a planner and an executor per pass and
drops them; if a reference cycle reaches the database, its arrays stay until
the cycle collector's oldest generation runs, and a loop of such passes
holds several dead databases at once.
"""

import gc
import weakref

from repro import Executor, QuickrPlanner
from repro.engine.physical import compile_plan
from repro.parallel import ParallelOptions
from repro.workloads.tpcds import generate_tpcds, query_by_name

#: Join reordering over >= 3 leaves, a distinct sampler, the universe pair.
QUERIES = ("q01", "q05", "q12")


def _assert_freed_by_refcount(**executor_kwargs):
    gc.collect()
    gc.disable()
    try:
        db = generate_tpcds(scale=0.02, seed=1)
        fact_column = weakref.ref(db.table("store_sales").column("ss_item_sk"))
        database = weakref.ref(db)
        planner, executor = QuickrPlanner(db), Executor(db, **executor_kwargs)
        for name in QUERIES:
            query = query_by_name(db, name)
            for planned in (planner.plan_baseline(query), planner.plan(query)):
                result = executor.execute(planned.plan)
                assert result.table.num_rows > 0
        del db, planner, executor, query, planned, result
        assert database() is None
        assert fact_column() is None
    finally:
        gc.enable()


def test_dropped_database_is_freed_without_the_cycle_collector():
    _assert_freed_by_refcount()


def test_dropped_database_is_freed_behind_a_parallel_executor():
    # The parallel pipeline borrows its owner's engine; it must not tie the
    # two into a cycle that outlives the executor.
    _assert_freed_by_refcount(
        parallelism=2,
        parallel_options=ParallelOptions(pool="inline", min_partition_rows=1),
    )


def test_compile_and_execute_leave_nothing_for_the_cycle_collector():
    # A self-referential lowering closure used to leave a function<->cell
    # cycle per compiled plan; the lowering is a loop now.
    db = generate_tpcds(scale=0.02, seed=1)
    planner = QuickrPlanner(db)
    plans = [planner.plan(query_by_name(db, name)).plan for name in QUERIES]
    gc.collect()
    gc.disable()
    try:
        for plan in plans:
            compile_plan(plan, db).execute(db)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_planning_leaves_nothing_for_the_cycle_collector():
    # ``finalize_plan`` and ``samplers_below`` used to recurse through nested
    # functions that referred to themselves: a function<->cell cycle per
    # approximable query. The scale is the smallest at which one of the
    # three is approximable, so that the successor rewrite actually runs.
    db = generate_tpcds(scale=0.15, seed=1)
    planner = QuickrPlanner(db)
    queries = [query_by_name(db, name) for name in QUERIES]
    gc.collect()
    gc.disable()
    try:
        planned = [(planner.plan_baseline(q), planner.plan(q)) for q in queries]
        assert any(quickr.approximable for _, quickr in planned)
        assert gc.collect() == 0
    finally:
        gc.enable()
