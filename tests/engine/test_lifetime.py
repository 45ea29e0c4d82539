"""A dropped database must be freed by reference counting alone.

Ad-hoc traffic builds a database, a planner and an executor per pass and
drops them; if a reference cycle reaches the database, its arrays stay until
the cycle collector's oldest generation runs, and a loop of such passes
holds several dead databases at once.
"""

import gc
import weakref

from repro import Executor, QuickrPlanner
from repro.workloads.tpcds import generate_tpcds, query_by_name

#: Join reordering over >= 3 leaves, a distinct sampler, the universe pair.
QUERIES = ("q01", "q05", "q12")


def test_dropped_database_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        db = generate_tpcds(scale=0.02, seed=1)
        fact_column = weakref.ref(db.table("store_sales").column("ss_item_sk"))
        database = weakref.ref(db)
        planner, executor = QuickrPlanner(db), Executor(db)
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
