"""Exact answers are the same bits serially and in parallel.

The row merge restores the serial row order from the lineage every
partition's rows carry. A project on the way up used to drop that lineage,
so q10 and q24 (each derives a column below its aggregate) came back with
their partitions concatenated: groups in another order and float sums a
few ulps off. A project now passes lineage up as a select does, and
``merge_rows`` refuses several partitions' rows without it. The fact-fact
queries' sums of declared decimals are exact whatever the order, so their
answers are one set of bits built, unbuilt, and on every pool and degree.
"""

import numpy as np
import pytest

from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import Project, SamplerNode
from repro.engine.executor import Executor
from repro.engine.physical import compile_plan, liveness
from repro.engine.table import Database, Table, rowid_column_name
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.samplers.uniform import UniformSpec
from repro.service.protocol import table_digest
from repro.workloads.tpcds import query_by_name

POOLS_AND_DEGREES = [(pool, degree) for pool in ("thread", "process") for degree in (2, 3)]


@pytest.fixture(scope="module")
def exact(tiny_tpcds):
    planner = QuickrPlanner(tiny_tpcds)
    return lambda name: planner.plan_baseline(query_by_name(tiny_tpcds, name)).plan


def parallel(database, pool, degree):
    options = ParallelOptions(pool=pool, min_partition_rows=1_000)
    return Executor(database, parallelism=degree, parallel_options=options)


@pytest.mark.parametrize("pool,degree", POOLS_AND_DEGREES)
@pytest.mark.parametrize("name", ["q10", "q24", "q11", "q12", "q13", "q14"])
def test_parallel_exact_answer_is_the_serial_one(tiny_tpcds, exact, name, pool, degree):
    plan = exact(name)
    reference = Executor(tiny_tpcds).execute(plan).table
    result = parallel(tiny_tpcds, pool, degree).execute(plan)
    assert result.parallel.strategy != "serial-fallback", result.parallel.reason
    assert table_digest(result.table) == table_digest(reference)


class TestProjectCarriesLineage:
    def test_q10_payloads_carry_every_scan_lineage(self, tiny_tpcds, exact):
        plan = exact("q10")
        assert any(isinstance(node, Project) for node in plan.walk())
        lineage = (rowid_column_name(0), rowid_column_name(1))
        physical = compile_plan(plan.child, tiny_tpcds, root_required=("i_category",) + lineage)
        table, _, _ = physical.execute(tiny_tpcds)
        assert table.lineage_column_names() == lineage

    def test_a_serial_exact_plan_attaches_none(self, tiny_tpcds, exact):
        physical = compile_plan(exact("q10"), tiny_tpcds)
        assert not any(op.lineage_column for op in physical.ops)

    def test_a_sampler_above_a_project_draws_the_serial_sample(self):
        """A project passes lineage as a select does, so a lineage-reading
        sampler above one draws by the rows' identities: the row-merged
        parallel run draws the serial sample."""
        rng = np.random.default_rng(0)
        db = Database()
        db.register(Table("t", {"g": rng.integers(0, 4, 8_000), "x": rng.random(8_000)}))
        sampled = SamplerNode(
            scan(db, "t").derive(y=col("x") * 2.0).node, UniformSpec(0.5, seed=3)
        )
        _, attaching = liveness(sampled)
        assert attaching == frozenset({(0, 0)})
        plan = (
            from_node(sampled).groupby("g").agg(sum_(col("y"), "s"), count("n")).build("above").plan
        )
        result = parallel(db, "thread", 2).execute(plan)
        assert result.parallel.strategy != "serial-fallback", result.parallel.reason
        assert table_digest(result.table) == table_digest(Executor(db).execute(plan).table)
