"""Shared-memory transport: identity, fault interplay, leak reclamation.

The transport's contract is behavioral invisibility: a D-way process run,
which ships through shared memory, must return byte-for-byte what the same
options return on the thread pool, which passes tables by reference (and
what a serial run returns, for plans whose parallel execution is
bit-identical to begin with) — while moving O(schema) bytes over the pipe
and leaving zero segments behind, even when workers crash mid-handoff. A
run whose inputs the arena cannot encode falls back to pickle as a whole.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.errors import SchemaError
from repro.memory import leaked_system_segments, live_segments, manager, reap, release
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.parallel import transport
from repro.parallel.executor import ParallelExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import RetryPolicy, TaskRuntime

needs_fork_and_shm = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods() or not transport.shm_available(),
    reason="requires fork workers and working POSIX shared memory",
)

DEGREE = 4


@pytest.fixture(autouse=True)
def clean_segments():
    yield
    manager().release_all()


def identical(t1: Table, t2: Table) -> bool:
    if set(t1.column_names) != set(t2.column_names) or t1.num_rows != t2.num_rows:
        return False
    for c in t1.column_names:
        a, b = t1.column(c), t2.column(c)
        same = (
            np.array_equal(a, b, equal_nan=True)
            if a.dtype.kind == "f"
            else np.array_equal(a, b)
        )
        if not same:
            return False
    return True


def parallel_run(db, plan, pool="process", fault_plan=None):
    options = ParallelOptions(
        pool=pool, max_workers=DEGREE, task_seed=7, fault_plan=fault_plan
    )
    return ParallelExecutor(db, parallelism=DEGREE, options=options).execute(plan)


def has_distinct(plan) -> bool:
    return any(
        isinstance(n, SamplerNode) and n.spec.kind == "distinct" for n in plan.walk()
    )


@needs_fork_and_shm
class TestTpcdsIdentity:
    """Process+shm vs thread pool vs serial on representative TPC-DS plans.

    q01: round-robin uniform (bit-identical to serial); q02: distinct
    sampler (parallel != serial by design, but process == thread must
    hold); q12: hash partitioning with a broadcast side.
    """

    @pytest.mark.parametrize("name", ["q01", "q02", "q12"])
    def test_shm_matches_pickle_bit_for_bit(self, tiny_tpcds, name):
        from repro.workloads.tpcds import query_by_name

        plan = QuickrPlanner(tiny_tpcds).plan(query_by_name(tiny_tpcds, name)).plan
        via_threads = parallel_run(tiny_tpcds, plan, pool="thread")
        via_shm = parallel_run(tiny_tpcds, plan)
        assert via_threads.parallel.transport == "pickle"
        assert via_shm.parallel.transport == "shm"
        assert identical(via_threads.table, via_shm.table)
        if not has_distinct(plan):
            serial = Executor(tiny_tpcds).execute(plan)
            assert identical(serial.table, via_shm.table)

    def test_o_schema_bytes_on_pipe(self, tiny_tpcds):
        from repro.workloads.tpcds import query_by_name

        plan = QuickrPlanner(tiny_tpcds).plan(query_by_name(tiny_tpcds, "q01")).plan
        result = parallel_run(tiny_tpcds, plan)
        metrics = result.parallel
        assert metrics.transport == "shm"
        assert 0 < metrics.result_bytes_on_pipe < 64 * 1024
        assert metrics.result_bytes_shared > metrics.result_bytes_on_pipe

    def test_no_segments_survive_a_run(self, tiny_tpcds):
        from repro.workloads.tpcds import query_by_name

        plan = QuickrPlanner(tiny_tpcds).plan(query_by_name(tiny_tpcds, "q01")).plan
        parallel_run(tiny_tpcds, plan)
        assert live_segments() == ()
        assert leaked_system_segments() == []


@needs_fork_and_shm
class TestWholeRunPickleFallback:
    """An input the arena cannot encode sends the whole run back to the
    pickle transport, and the answer does not notice."""

    def test_unencodable_input_column_runs_on_pickle(self):
        from repro.algebra.builder import scan
        from repro.algebra.expressions import col
        from repro.engine.table import Database

        rows = 4_000
        db = Database()
        db.register(
            Table(
                "docs",
                {
                    "k": np.arange(rows, dtype=np.int64),
                    "doc": np.array([{"k": i} for i in range(rows)], dtype=object),
                },
            )
        )
        query = scan(db, "docs").where(col("k") >= 100).build("docs_q")

        def run(pool):
            executor = Executor(
                db,
                parallelism=DEGREE,
                parallel_options=ParallelOptions(
                    pool=pool, max_workers=DEGREE, min_partition_rows=1_000, task_seed=7
                ),
            )
            return executor, executor.execute(query)

        executor, via_process = run("process")
        assert via_process.parallel.strategy.startswith("round-robin")
        assert via_process.parallel.transport == "pickle"
        assert executor.registry.value("transport.shm_fallbacks") == 1.0
        _, via_threads = run("thread")
        assert via_process.table.num_rows == rows - 100
        assert identical(via_threads.table, via_process.table)
        assert leaked_system_segments() == []


@needs_fork_and_shm
class TestChaosWithLiveSegments:
    """Faults injected while segments are in flight: crashes, hangs,
    corrupt payloads and pickle bombs, on the process and thread pools."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_chaos_identity_and_no_leaks(self, tiny_tpcds, seed):
        from repro.workloads.tpcds import query_by_name

        plan = QuickrPlanner(tiny_tpcds).plan(query_by_name(tiny_tpcds, "q01")).plan
        results = {}
        for pool in ("thread", "process"):
            fault_plan = FaultPlan.random(
                seed, DEGREE, crashes=1, hangs=1, corruptions=1, pickle_bombs=1
            )
            results[pool] = parallel_run(tiny_tpcds, plan, pool, fault_plan=fault_plan)
        shm = results["process"].parallel
        assert shm.transport == "shm"
        assert shm.faults_injected == 4
        assert shm.task_retries >= 1
        assert identical(results["thread"].table, results["process"].table)
        # q01 is round-robin uniform: the faulted runs still equal serial.
        assert identical(Executor(tiny_tpcds).execute(plan).table, results["process"].table)
        assert leaked_system_segments() == []

    def test_corrupt_result_ships_and_is_rejected(self, tiny_tpcds):
        """A corrupted table still travels through shm — validation must see
        the damage, reject the attempt, and the retry must win."""
        from repro.workloads.tpcds import query_by_name

        plan = QuickrPlanner(tiny_tpcds).plan(query_by_name(tiny_tpcds, "q01")).plan
        fault_plan = FaultPlan.random(3, DEGREE, crashes=0, hangs=0, corruptions=2)
        chaotic = parallel_run(tiny_tpcds, plan, fault_plan=fault_plan)
        clean = parallel_run(tiny_tpcds, plan)
        assert chaotic.parallel.task_retries >= 1
        assert identical(clean.table, chaotic.table)
        assert leaked_system_segments() == []


@needs_fork_and_shm
class TestWorkerDeathReclamation:
    """A worker that dies *while holding a segment* cannot release it; the
    parent must reap it by deterministic name (satellite: pool recycle)."""

    def test_broken_pool_recycle_reclaims_segments(self):
        token = transport.new_run_token()

        def work(spec):
            table = Table("t", {"x": np.arange(1000, dtype=np.int64)})
            shipped = transport.ship_result(table, token, spec.partition, spec.attempt)
            if spec.partition == 1 and spec.attempt == 0:
                os._exit(1)  # die holding the segment: nobody gets the ref
            return (0.0, {}, shipped)

        reaped = []
        runtime = TaskRuntime(
            WorkerPool("process", max_workers=2),
            policy=RetryPolicy(max_attempts=3, speculate=False),
        )
        report = runtime.run(
            work,
            2,
            receive=lambda result, spec: (
                result[0],
                result[1],
                Table.from_ref(result[2]),
            ),
            dispose=transport.dispose_result,
            reap=lambda spec: reaped.append(
                reap(transport.result_segment_name(token, spec.partition, spec.attempt))
            ),
        )
        assert not report.failed_partitions
        # The dead attempt's orphan was scrubbed by the reap hook (or had
        # not hit shm yet); either way nothing survives the sweep.
        for outcome in report.outcomes:
            transport.dispose_result(outcome.payload)
        transport.sweep_results(token, [o.attempts for o in report.outcomes], keep=set())
        assert leaked_system_segments() == []

    def test_scrub_is_idempotent_and_counts(self):
        token = transport.new_run_token()
        table = Table("t", {"x": np.ones(10)})
        name = transport.result_segment_name(token, 0, 0)
        table.to_ref(segment_name=name, keep_open=False)
        assert reap(name) is True
        assert reap(name) is False  # already gone: free, not an error
        assert reap("qkr_never_existed") is False


@needs_fork_and_shm
class TestServedOverTcp:
    """The full stack: a real socket server whose engine runs D-way with shm
    transport must serve the digest of serial library-mode execution."""

    def test_served_digest_matches_serial(self, tiny_tpcds):
        from repro.optimizer.planner import QuickrPlanner as Planner
        from repro.service import QueryServer, QueryService, ServiceClient, ServiceConfig
        from repro.service.protocol import table_digest
        from repro.workloads.tpcds import query_by_name

        engine = Executor(
            tiny_tpcds,
            parallelism=DEGREE,
            parallel_options=ParallelOptions(pool="process", max_workers=DEGREE, task_seed=7),
        )
        service = QueryService(tiny_tpcds, ServiceConfig(num_workers=1), executor=engine)
        server = QueryServer(service, port=0).start()
        try:
            host, port = server.address
            client = ServiceClient(host, port, timeout=120.0)
            client.hello(tenant="shm")
            reply = client.query("q01")
            client.close()
        finally:
            server.stop()
        serial = Executor(tiny_tpcds).execute(
            Planner(tiny_tpcds).plan(query_by_name(tiny_tpcds, "q01")).plan
        )
        assert reply.digest == table_digest(serial.table)
        assert leaked_system_segments() == []


class TestTransportUnits:
    """Pure transport mechanics — no process pool needed."""

    @needs_fork_and_shm
    def test_ship_partitions_aliases_broadcasts(self):
        token = transport.new_run_token()
        broadcast = Table("dim", {"k": np.arange(10, dtype=np.int64)})
        split = [
            Table("fact", {"v": np.arange(5, dtype=np.int64)}),
            Table("fact", {"v": np.arange(5, 10, dtype=np.int64)}),
        ]
        refs, names = transport.ship_partitions(
            {"fact": split, "dim": [broadcast, broadcast]}, token
        )
        try:
            # One segment per distinct table: 2 fact partitions + 1 broadcast.
            assert len(names) == 3
            assert refs["dim"][0] is refs["dim"][1]
            assert len({r.segment for r in refs["fact"]}) == 2
            for pid in range(2):
                np.testing.assert_array_equal(
                    transport.open_partition(refs["fact"][pid]).column("v"),
                    split[pid].column("v"),
                )
        finally:
            transport.release_refs(names)

    @needs_fork_and_shm
    def test_ship_result_falls_back_on_unencodable_payload(self):
        token = transport.new_run_token()
        table = Table("t", {"bad": np.array([object(), object()], dtype=object)})
        shipped = transport.ship_result(table, token, 0, 0)
        assert shipped is table  # pickle fallback, not an exception
        assert transport.sweep_results(token, [1], keep=set()) == 0

    @needs_fork_and_shm
    def test_dispose_result_releases_both_forms(self):
        token = transport.new_run_token()
        table = Table("t", {"x": np.arange(4, dtype=np.int64)})
        ref = table.to_ref(
            segment_name=transport.result_segment_name(token, 0, 0), keep_open=False
        )
        transport.dispose_result((0.0, {}, ref))  # unmapped ref form
        assert transport.result_segment_name(token, 0, 0) not in leaked_system_segments()

        ref2 = table.to_ref(
            segment_name=transport.result_segment_name(token, 0, 1), keep_open=False
        )
        mapped = Table.from_ref(ref2)
        transport.dispose_result((0.0, {}, mapped))  # mapped table form
        assert transport.result_segment_name(token, 0, 1) not in leaked_system_segments()

    def test_unencodable_inputs_fall_back_wholesale(self, sales_db):
        """Arena rejection of an *input* table must raise SchemaError so the
        executor can drop to pickle for the whole run."""
        token = transport.new_run_token()
        bad = Table("t", {"bad": np.array([{"not": "a string"}], dtype=object)})
        with pytest.raises(SchemaError):
            transport.ship_partitions({"t": [bad]}, token)
        assert live_segments() == ()
