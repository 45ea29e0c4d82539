"""What crosses the partition boundary is what the rest of the plan reads.

The parallel pipeline evaluates the required-columns pass on the submitted
plan: base tables are split and shipped at their scan's requirement, worker
plans are compiled for the requirement at the split, and payloads come back
that narrow. Pinned here on q14 (three of 26 joined columns feed its
aggregate) through the trace a run leaves, and — width must never change an
answer — by comparing every TPC-DS plan on every pool and merge mode with
its serial answer.
"""

import pytest

from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor
from repro.obs.trace import Tracer, set_tracer
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.samplers.distinct import DistinctSpec
from repro.service.protocol import table_digest
from tests.engine.test_compiled_equivalence import QUERY_NAMES, assert_same_rows, plans_for

DEGREE = 2


@pytest.fixture(scope="module")
def planner(tiny_tpcds):
    return QuickrPlanner(tiny_tpcds)


def parallel_executor(database, pool, merge="rows"):
    return Executor(
        database,
        parallelism=DEGREE,
        parallel_options=ParallelOptions(pool=pool, merge=merge, min_partition_rows=1_000),
    )


@pytest.fixture()
def tracer():
    tracer = Tracer()
    set_tracer(tracer)
    yield tracer
    set_tracer(None)


class TestQ14Payload:
    """q14's split is an inner join whose aggregate keys on probe-side
    columns only (``ss_customer_sk``, ``d_year``), so partitions ship its
    matches: per probe row the two probe columns it reads, and per output
    row the one build column (``cs_sales_price``)."""

    def test_payload_carries_what_the_aggregate_reads(self, planner, tiny_tpcds, tracer):
        plan = plans_for(planner, tiny_tpcds, "q14")["baseline"]
        result = parallel_executor(tiny_tpcds, "thread").execute(plan)
        assert result.parallel.strategy != "serial-fallback"

        (query,) = tracer.find("parallel.query")
        assert query.attributes["columns"] == 3  # of the join's 26
        (merge,) = tracer.find("parallel.merge")
        rows = result.cardinalities[(0,)]
        probe_rows = merge.attributes["probe_rows"]
        assert merge.attributes["rows"] == rows
        assert probe_rows * 3 < rows  # the join fans out
        # Two data columns and the match count of eight bytes a probe row,
        # one data column a match: the probe rows' lineage orders the merge
        # but is not gathered into its output, and no lineage of the build
        # side crosses.
        assert merge.attributes["bytes"] == probe_rows * 8 * 3 + rows * 8
        assert merge.attributes["bytes"] < rows * 8 * 2
        assert {span.attributes["columns"] for span in tracer.find("op.join")} <= {2, 3}

    def test_shared_memory_moves_the_narrow_payload(self, planner, tiny_tpcds, tracer):
        plan = plans_for(planner, tiny_tpcds, "q14")["baseline"]
        result = parallel_executor(tiny_tpcds, "process").execute(plan)
        if result.parallel.transport != "shm":
            pytest.skip("no usable shared memory here")
        rows = result.cardinalities[(0,)]
        (merge,) = tracer.find("parallel.merge")
        # Five 8-byte columns a probe row (two data, two lineage, the match
        # count) and one a match (six a row before), plus per-column
        # alignment of the six columns the two tables hold.
        shipped = merge.attributes["probe_rows"] * 8 * 5 + rows * 8
        assert shipped <= result.parallel.result_bytes_shared <= shipped + 64 * 6 * DEGREE
        assert result.parallel.result_bytes_shared < rows * 8 * 2


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_every_pool_and_merge_answers_like_serial(planner, tiny_tpcds, name):
    serial = Executor(tiny_tpcds)
    for kind, plan in plans_for(planner, tiny_tpcds, name).items():
        if any(
            isinstance(n, SamplerNode) and isinstance(n.spec, DistinctSpec) for n in plan.walk()
        ):
            continue  # per-partition randomness: covered by test_equivalence
        reference = serial.execute(plan).table
        for pool in ("thread", "process"):
            answer = parallel_executor(tiny_tpcds, pool).execute(plan).table
            assert table_digest(answer) == table_digest(reference), f"{name}/{kind}/{pool}"
        partial = parallel_executor(tiny_tpcds, "thread", merge="partial").execute(plan).table
        assert_same_rows(reference, partial, f"{name}/{kind}/partial")
