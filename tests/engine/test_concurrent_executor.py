"""One shared Executor under many threads: bit-identity + counter sanity.

The query service multiplexes every session onto a single Executor /
PlanCache / MetricsRegistry. These tests pin the properties that makes
safe: concurrent execution returns byte-for-byte the answers a serial
run produces, and the shared bookkeeping stays exact (no lost updates).
"""

import threading

from repro.engine.executor import Executor
from repro.obs.registry import MetricsRegistry
from repro.optimizer.planner import QuickrPlanner
from repro.service.protocol import table_digest
from repro.workloads.tpcds import query_by_name

QUERIES = ("q07", "q12", "q22")
NUM_THREADS = 8
ROUNDS = 3


def serial_digests(db):
    executor = Executor(db)
    planner = QuickrPlanner(db)
    digests = {}
    for name in QUERIES:
        plan = planner.plan(query_by_name(db, name)).plan
        digests[name] = table_digest(executor.execute(plan).table)
    return digests


class TestConcurrentExecutor:
    def _run_threads(self, worker):
        errors = []

        def wrapped(index):
            try:
                worker(index)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=wrapped, args=(i,)) for i in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert not errors, errors

    def test_concurrent_matches_serial_bit_for_bit(self, tiny_tpcds):
        expected = serial_digests(tiny_tpcds)
        registry = MetricsRegistry()
        executor = Executor(tiny_tpcds, registry=registry)
        planner = QuickrPlanner(tiny_tpcds)
        plans = {
            name: planner.plan(query_by_name(tiny_tpcds, name)).plan
            for name in QUERIES
        }
        observed = []
        lock = threading.Lock()

        def worker(index):
            # Each thread walks the suite from a different offset, so at any
            # moment distinct AND identical plans are in flight together.
            for round_no in range(ROUNDS):
                name = QUERIES[(index + round_no) % len(QUERIES)]
                result = executor.execute(plans[name])
                with lock:
                    observed.append((name, table_digest(result.table)))

        self._run_threads(worker)
        assert len(observed) == NUM_THREADS * ROUNDS
        for name, digest in observed:
            assert digest == expected[name], f"{name} diverged under concurrency"

    def test_shared_counters_stay_exact(self, tiny_tpcds):
        registry = MetricsRegistry()
        executor = Executor(tiny_tpcds, registry=registry)
        planner = QuickrPlanner(tiny_tpcds)
        plan = planner.plan(query_by_name(tiny_tpcds, "q12")).plan

        def worker(index):
            for _ in range(ROUNDS):
                executor.execute(plan)

        self._run_threads(worker)
        total = NUM_THREADS * ROUNDS
        assert registry.value("executor.queries") == total
        stats = executor.timings()["plan_cache"]
        # Every execute() performs exactly one cache lookup.
        assert stats["hits"] + stats["misses"] == total
        assert stats["hits"] >= total - NUM_THREADS  # at worst one miss per thread
        assert stats["size"] == 1
        timings = executor.snapshot()["timings"]
        assert timings["compile_seconds"] >= 0.0
        assert timings["execute_seconds"] > 0.0

    def test_fresh_stacks_agree_with_shared_stack(self, tiny_tpcds):
        """A private planner+executor per thread gives the same bytes as the
        shared stack — determinism does not depend on isolation."""
        expected = serial_digests(tiny_tpcds)
        observed = []
        lock = threading.Lock()

        def worker(index):
            executor = Executor(tiny_tpcds)
            planner = QuickrPlanner(tiny_tpcds)
            name = QUERIES[index % len(QUERIES)]
            result = executor.execute(planner.plan(query_by_name(tiny_tpcds, name)).plan)
            with lock:
                observed.append((name, table_digest(result.table)))

        self._run_threads(worker)
        for name, digest in observed:
            assert digest == expected[name]
