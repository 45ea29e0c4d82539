"""Resident partitions and the one worker pool per Executor (DESIGN §7).

* a table is cut once per (layout, degree) and a column is copied once, on
  first read: later queries are placed on the *same* arrays, and a column
  nothing reads is never copied;
* a re-registered table never serves partitions of its predecessor;
* whatever the layout, degree or table size, the partitions are disjoint,
  ascending, cover the table, and their row indices are the lineage;
* concurrent queries racing a first touch still answer like serial;
* pool threads exit with their Executor, and a hung attempt retires the
  threads it sits on instead of occupying a later query's slot.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor, PartialResult
from repro.engine.governance import GovernanceContext
from repro.engine.partitions import HASH, RANGE_CLUSTER, Partitioner, PartitionStore
from repro.engine.table import Table, rowid_column_name
from repro.memory import leaked_system_segments
from repro.parallel import Fault, FaultPlan, ParallelOptions, RetryPolicy
from repro.parallel.transport import RunTransport
from repro.samplers.uniform import UniformSpec
from repro.service.protocol import table_digest
from tests.conftest import make_sales_db

DEGREE = 4

FAST = RetryPolicy(backoff_base=0.005, backoff_max=0.05, poll_interval=0.005, speculate=False)


def parallel_executor(db, pool="thread", **overrides):
    options = dict(pool=pool, min_partition_rows=1_000, max_workers=DEGREE, retry=FAST)
    options.update(overrides)
    return Executor(db, parallelism=DEGREE, parallel_options=ParallelOptions(**options))


def totals_by(db, key, seed=42):
    """SUM(s_amount), COUNT(*) by ``key`` over a 10 % uniform sample."""
    return (
        from_node(SamplerNode(scan(db, "sales").node, UniformSpec(0.1, seed=seed)))
        .groupby(key)
        .agg(sum_(col("s_amount"), "total"), count("n"))
        .orderby(key)
        .build(f"totals_by_{key}")
    )


@pytest.fixture
def placements(monkeypatch):
    """Every ``{worker table name: [per-task tables]}`` a query places."""
    seen = []
    ship_inputs = RunTransport.ship_inputs

    def spy(self, partitions):
        seen.append(partitions)
        return ship_inputs(self, partitions)

    monkeypatch.setattr(RunTransport, "ship_inputs", spy)
    return seen


class TestPlacedOnce:
    def test_two_queries_share_the_same_arrays(self, placements):
        db = make_sales_db()
        executor = parallel_executor(db)
        executor.execute(totals_by(db, "s_item"))
        executor.execute(totals_by(db, "s_day", seed=7))
        (first,), (second,) = (list(p.values()) for p in placements)
        assert len(first) == len(second) == DEGREE
        lineage = rowid_column_name(0)
        for a, b in zip(first, second):
            assert a.column("s_amount") is b.column("s_amount")
            assert a.column(lineage) is b.column(lineage)

        resident = db.partitions.partitions(db.table("sales"), Partitioner(DEGREE))
        arrays, materialised = resident.columns(("s_amount",))
        assert materialised == 0
        assert all(part is task.column("s_amount") for part, task in zip(arrays["s_amount"], first))
        # Read by one query each, by neither, by neither.
        assert set(resident.resident_columns()) == {"s_amount", "s_item", "s_day"}
        assert executor.registry.value("parallel.resident.misses") == 3.0
        assert executor.registry.value("parallel.resident.hits") == 1.0
        assert executor.registry.value("parallel.resident.bytes") == db.partitions.nbytes()

    def test_broadcast_tables_are_not_copied(self, placements):
        db = make_sales_db()
        query = (
            scan(db, "sales")
            .join(scan(db, "item"), [("s_item", "i_item")])
            .groupby("i_cat")
            .agg(sum_(col("s_amount"), "total"))
            .orderby("i_cat")
            .build("by_category")
        )
        parallel_executor(db).execute(query)
        (placed,) = placements
        item_tasks = next(
            tasks for tasks in placed.values() if tasks[0].has_column("i_cat")
        )
        assert all(task is item_tasks[0] for task in item_tasks)
        assert np.shares_memory(item_tasks[0].column("i_cat"), db.table("item").column("i_cat"))

    def test_placement_is_reported(self):
        db = make_sales_db()
        executor = parallel_executor(db)
        cold = executor.execute(totals_by(db, "s_item")).parallel
        warm = executor.execute(totals_by(db, "s_item")).parallel
        assert (cold.placed_columns, cold.materialised_columns) == (2, 2)
        assert (warm.placed_columns, warm.materialised_columns) == (2, 0)
        assert warm.resident_bytes == db.partitions.nbytes() > 0


class TestReRegistration:
    def test_replacement_drops_the_old_partitions(self):
        db = make_sales_db()
        executor = parallel_executor(db)
        query = totals_by(db, "s_item")
        executor.execute(query)
        old = db.table("sales")
        assert db.partitions.partitions(old, Partitioner(DEGREE)).resident_columns()

        half = old.slice(0, old.num_rows // 2)
        db.register(Table("sales", {c: half.column(c).copy() for c in half.column_names}))
        fresh = db.partitions.partitions(db.table("sales"), Partitioner(DEGREE))
        assert fresh.table is db.table("sales")
        assert fresh.resident_columns() == ()
        assert sum(len(idx) for idx in fresh.indices) == old.num_rows // 2

        after = executor.execute(query)
        serial = Executor(db).execute(query)
        assert table_digest(after.table) == table_digest(serial.table)

    def test_same_name_other_object_is_never_served(self):
        store = PartitionStore()
        first = Table("t", {"x": np.arange(10)})
        second = Table("t", {"x": np.arange(6)})
        a = store.partitions(first, Partitioner(2))
        b = store.partitions(second, Partitioner(2))
        assert a.table is first and b.table is second
        assert sum(len(idx) for idx in b.indices) == 6
        assert store.partitions(second, Partitioner(2)) is b


def _partitioners(degree):
    cuts = tuple(float(q) for q in np.linspace(0, 50, degree + 1)[1:-1])
    return {
        "round-robin": Partitioner(degree),
        "hash": Partitioner(degree, HASH, ("k",), seed=11),
        "range-cluster": Partitioner(degree, RANGE_CLUSTER, ("k",), boundaries=cuts),
    }


class TestPartitionProperty:
    @pytest.mark.parametrize("kind", ["round-robin", "hash", "range-cluster"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rows", [0, 1, 2, 17, 503])
    def test_disjoint_ascending_cover_with_lineage(self, kind, degree, rows):
        gen = np.random.default_rng(rows * 31 + degree)
        table = Table(
            "t", {"k": gen.integers(0, 50, rows), "v": gen.normal(size=rows)}
        )
        partitioner = _partitioners(degree)[kind]
        resident = PartitionStore().partitions(table, partitioner)
        indices = resident.indices
        assert len(indices) == degree
        assert all(idx.dtype == np.int64 for idx in indices)
        assert all(np.all(np.diff(idx) > 0) for idx in indices)  # ascending, no repeats
        np.testing.assert_array_equal(
            np.sort(np.concatenate(indices)), np.arange(rows)  # disjoint and covering
        )
        arrays, _ = resident.columns(("k", "v"))
        for pid, idx in enumerate(indices):
            # The index array is the lineage: position idx[i] of the base
            # table is where the partition's row i came from.
            np.testing.assert_array_equal(arrays["k"][pid], table.column("k")[idx])
            np.testing.assert_array_equal(arrays["v"][pid], table.column("v")[idx])
        for idx, part in zip(indices, partitioner.split(table)):
            np.testing.assert_array_equal(part.column("v"), table.column("v")[idx])
        if kind == "hash":
            owner = {}
            for pid, keys in enumerate(arrays["k"]):
                for key in np.unique(keys):
                    assert owner.setdefault(int(key), pid) == pid


class TestConcurrentFirstTouch:
    def test_racing_queries_equal_serial(self):
        keys = ("s_item", "s_day", "s_cust", "s_qty")
        reference_db = make_sales_db()
        serial = Executor(reference_db)
        expected = {
            key: table_digest(serial.execute(totals_by(reference_db, key)).table)
            for key in keys
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                db = make_sales_db()  # nothing resident: every round races the first touch
                executor = parallel_executor(db)
                barrier = threading.Barrier(len(keys))
                digests, errors = {}, []

                def analyst(key):
                    try:
                        barrier.wait(timeout=10)
                        digests[key] = table_digest(executor.execute(totals_by(db, key)).table)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [threading.Thread(target=analyst, args=(key,)) for key in keys]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert digests == expected
                # One copy of the shared column, however the race went.
                resident = db.partitions.partitions(db.table("sales"), Partitioner(DEGREE))
                assert sorted(resident.resident_columns()) == sorted(keys + ("s_amount",))
                assert executor.registry.value("parallel.resident.misses") == 5.0
        finally:
            sys.setswitchinterval(interval)


def _settle(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _threads_since(before):
    """Threads alive now that were not in ``before`` — identities, not a
    count, so an earlier test's threads still on their way out do not
    cancel new ones."""
    return set(threading.enumerate()) - before


class TestPoolLifetime:
    def test_threads_exit_with_their_executor(self):
        db = make_sales_db()
        query = totals_by(db, "s_item")
        gc.collect()
        before = set(threading.enumerate())
        for i in range(20):
            executor = parallel_executor(db, pool="process" if i == 19 else "thread")
            executor.execute(query)
            if i < 19:
                assert _threads_since(before)  # resident while owned
            del executor  # no gc.collect(): the pool is freed by reference count
        assert _settle(lambda: not _threads_since(before)), _threads_since(before)
        assert leaked_system_segments() == []

    def test_one_pool_serves_every_query_of_an_executor(self):
        db = make_sales_db()
        executor = parallel_executor(db)
        before = set(threading.enumerate())
        for _ in range(5):
            executor.execute(totals_by(db, "s_item"))
        assert 1 <= len(_threads_since(before)) <= DEGREE

    def test_a_hang_never_occupies_a_later_querys_slot(self):
        """Two attempts hang for 2 s past a 0.5 s deadline on a two-thread
        pool, so every thread is stuck; the very next query, under the same
        deadline, must run on fresh ones."""
        db = make_sales_db()
        query = totals_by(db, "s_item")
        hangs = FaultPlan([Fault(p, 0, "hang", seconds=2.0) for p in (2, 3)])
        executor = parallel_executor(db, fault_plan=hangs, max_workers=2)
        salvaged = executor.execute(query, governance=GovernanceContext.with_timeout(0.5))
        assert isinstance(salvaged, PartialResult)
        assert set(salvaged.lost_partitions) == {2, 3}

        executor.parallel_options.fault_plan = None
        t0 = time.perf_counter()
        clean = executor.execute(query, governance=GovernanceContext.with_timeout(0.5))
        assert time.perf_counter() - t0 < 0.5
        assert not clean.degraded
        assert table_digest(clean.table) == table_digest(Executor(db).execute(query).table)
