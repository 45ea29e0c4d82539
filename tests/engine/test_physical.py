"""Unit tests for the compiled physical plan layer and the plan cache."""

import numpy as np
import pytest

from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col, lit
from repro.algebra.logical import Join, SamplerNode, Scan
from repro.engine.executor import Executor
from repro.engine.physical import PlanCache, compile_plan
from repro.engine.table import Table, rowid_column_name
from repro.errors import PlanError
from repro.samplers.uniform import UniformSpec


def star(db):
    return (
        scan(db, "sales")
        .join(scan(db, "item"), on=[("s_item", "i_item")])
        .groupby("i_cat")
        .agg(sum_(col("s_amount"), "total"))
        .build("star")
        .plan
    )


class TestCompile:
    def test_postorder_pipeline(self, sales_db):
        physical = compile_plan(star(sales_db), sales_db)
        # Root is last; every child slot precedes its consumer.
        assert physical.ops[-1].address == ()
        for op in physical.ops:
            assert all(slot < op.index for slot in op.child_slots)
            assert op.subtree_start <= op.index

    def test_subtree_ranges_are_contiguous(self, sales_db):
        physical = compile_plan(star(sales_db), sales_db)
        for op in physical.ops:
            covered = {physical.ops[i].address for i in range(op.subtree_start, op.index + 1)}
            # Exactly the addresses prefixed by op.address.
            expected = {
                o.address
                for o in physical.ops
                if o.address[: len(op.address)] == op.address
            }
            assert covered == expected

    def test_scan_lineage_resolved_at_compile_time(self, sales_db):
        def lineage(plan, **how):
            ops = compile_plan(plan, sales_db, **how).ops
            return sorted(str(op.lineage_column) for op in ops if op.opcode == "scan")

        both = [rowid_column_name(0), rowid_column_name(1)]
        # Nothing reads lineage through an aggregate: no scan attaches it.
        assert lineage(star(sales_db)) == ["None", "None"]
        # A consumer that names it (the parallel row merge), or a sampler
        # that reads it, keeps it alive in every scan below.
        join = star(sales_db).child
        assert lineage(join) == ["None", "None"]
        assert lineage(join, root_required=("s_amount", rowid_column_name(0))) == both
        sampled = from_node(SamplerNode(join, UniformSpec(0.5))).agg(count("n")).node
        assert lineage(sampled) == both

    def test_logical_sampler_spec_rejected(self, sales_db):
        class LogicalOnlySpec:
            def key(self):
                return ("logical", 0.1)

        plan = SamplerNode(scan(sales_db, "sales").node, LogicalOnlySpec())
        with pytest.raises(PlanError, match="logical"):
            compile_plan(plan, sales_db)


class TestExecute:
    def test_metrics_in_execution_order(self, sales_db):
        physical = compile_plan(star(sales_db), sales_db)
        _, cards, metrics = physical.execute(sales_db, record_metrics=True)
        assert [m.address for m in metrics] == [op.address for op in physical.ops]
        for m in metrics:
            assert m.rows_out == cards[m.address]
            assert m.seconds >= 0.0
        # Scans read the base table; their rows_in is the base cardinality.
        by_address = {op.address: op for op in physical.ops}
        for m in metrics:
            op = by_address[m.address]
            if op.opcode == "scan":
                assert m.rows_in == sales_db.table(op.node.table).num_rows

    def test_no_metrics_unless_requested(self, sales_db):
        physical = compile_plan(star(sales_db), sales_db)
        _, _, metrics = physical.execute(sales_db)
        assert metrics == ()

    def test_override_skips_the_subtree(self, sales_db):
        plan = (
            scan(sales_db, "sales")
            .where(col("s_amount") > lit(0))
            .groupby("s_item")
            .agg(count("n"))
            .build("q")
            .plan
        )
        physical = compile_plan(plan, sales_db)
        spliced = Table(
            "pre",
            {"s_item": np.array([7, 7, 8]), "s_amount": np.array([1.0, 2.0, 3.0])},
        )
        table, cards, _ = physical.execute(sales_db, overrides={(0,): spliced})
        # The scan below the override never ran.
        assert (0, 0) not in cards
        assert cards[(0,)] == 3
        np.testing.assert_array_equal(np.sort(table.column("s_item")), [7, 8])
        np.testing.assert_array_equal(
            table.column("n")[np.argsort(table.column("s_item"))], [2.0, 1.0]
        )

    def test_override_address_must_exist(self, sales_db):
        physical = compile_plan(star(sales_db), sales_db)
        bogus = Table("x", {"a": np.array([1])})
        with pytest.raises(PlanError, match="override address"):
            physical.execute(sales_db, overrides={(5, 5): bogus})

    def test_matches_executor_answer(self, sales_db):
        plan = star(sales_db)
        table, _, _ = compile_plan(plan, sales_db).execute(sales_db)
        reference = Executor(sales_db).execute(plan).answer
        stripped = table.drop_lineage()
        assert stripped.column_names == reference.column_names
        for name in reference.column_names:
            np.testing.assert_array_equal(stripped.column(name), reference.column(name))


class TestSelfJoinLineage:
    """Regression: one Scan object referenced twice used to make the old
    per-run ``scan_indices`` walk bail out and silently disable lineage.
    Compilation assigns each occurrence its own ordinal instead."""

    def _plan(self, shared, sampler=None):
        left = (
            from_node(shared if sampler is None else SamplerNode(shared, sampler))
            .rename(l_item="s_item", l_cust="s_cust", l_amount="s_amount")
            .node
        )
        join = Join(left, shared, ("l_cust",), ("s_cust",))
        return from_node(join).groupby("l_item").agg(count("n")).build("self").plan

    def test_duplicate_scan_gets_two_lineage_columns(self, sales_db):
        shared = Scan("sales", ("s_item", "s_cust", "s_amount"))
        # Lineage read on both sides: by a sampler under the left's rename,
        # and by the plan's consumer.
        physical = compile_plan(
            self._plan(shared, UniformSpec(0.5, seed=3)).child,
            sales_db,
            root_required=("l_item", rowid_column_name(1)),
        )
        scans = [op for op in physical.ops if op.opcode == "scan"]
        assert len(scans) == 2
        assert scans[0].node is scans[1].node  # same object, both occurrences
        assert {op.lineage_column for op in scans} == {
            rowid_column_name(0),
            rowid_column_name(1),
        }

    def test_self_join_executes_with_lineage(self, sales_db):
        shared = Scan("sales", ("s_item", "s_cust", "s_amount"))
        result = Executor(sales_db).execute(self._plan(shared))
        assert result.table.num_rows > 0
        # Sampled self-joins keep per-side lineage identity too.
        plan = self._plan(shared, UniformSpec(0.5, seed=3))
        assert Executor(sales_db).execute(plan).table.num_rows > 0


class TestPlanCache:
    def test_hit_miss_eviction_counters(self):
        # The cache counts nothing itself: a hit is a returned entry, a miss
        # None, and put() says how many it evicted (the executor counts all
        # three into its registry).
        cache = PlanCache(capacity=2)
        a, b, c = (object(), object(), object())
        assert cache.get("a") is None
        assert cache.put("a", a) == 0 and cache.put("b", b) == 0
        assert cache.get("a") is a
        assert cache.put("c", c) == 1  # evicts "b" (LRU; "a" was just touched)
        assert cache.get("b") is None
        assert cache.get("a") is a and cache.get("c") is c
        assert cache.stats() == {"size": 2, "capacity": 2}

    def test_capacity_zero_disables(self):
        cache = PlanCache(capacity=0)
        cache.put("a", object())
        assert len(cache) == 0 and cache.get("a") is None

    def test_clear(self):
        cache = PlanCache(capacity=4)
        cache.put("a", object())
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_get_put_keeps_invariants(self):
        import threading

        cache = PlanCache(capacity=8)
        num_threads, iterations = 8, 500
        barrier = threading.Barrier(num_threads)
        errors, lookups = [], []

        def worker(index):
            try:
                barrier.wait()
                for step in range(iterations):
                    key = f"k{(index + step) % 16}"  # 16 keys > capacity: evictions
                    if cache.get(key) is None:
                        cache.put(key, object())
                    lookups.append(key)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        # Every loop iteration completed its lookup.
        assert len(lookups) == num_threads * iterations
        assert stats["size"] <= 8
        assert len(cache) == stats["size"]


class TestExecutorCaching:
    def test_repeat_execution_hits(self, sales_db):
        executor = Executor(sales_db)
        first = executor.execute(star(sales_db))
        second = executor.execute(star(sales_db))
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        for name in first.table.column_names:
            np.testing.assert_array_equal(first.table.column(name), second.table.column(name))
        assert first.cost.machine_hours == second.cost.machine_hours

    def test_commuted_join_reuses_the_compilation(self, sales_db):
        executor = Executor(sales_db)
        ab = (
            scan(sales_db, "sales")
            .join(scan(sales_db, "item"), on=[("s_item", "i_item")])
            .groupby("i_cat")
            .agg(count("n"))
            .build("ab")
            .plan
        )
        ba = (
            scan(sales_db, "item")
            .join(scan(sales_db, "sales"), on=[("i_item", "s_item")])
            .groupby("i_cat")
            .agg(count("n"))
            .build("ba")
            .plan
        )
        executor.execute(ab)
        result = executor.execute(ba)
        assert result.plan_cache_hit
        assert result.table.num_rows > 0

    def test_overrides_require_exact_structure(self, sales_db):
        # run_plan with overrides must not execute a commuted representative:
        # the override addresses refer to the submitted plan's shape.
        executor = Executor(sales_db)
        ab = (
            scan(sales_db, "sales")
            .join(scan(sales_db, "item"), on=[("s_item", "i_item")])
            .groupby("i_cat")
            .agg(count("n"))
            .build("ab")
            .plan
        )
        ba = (
            scan(sales_db, "item")
            .join(scan(sales_db, "sales"), on=[("i_item", "s_item")])
            .groupby("i_cat")
            .agg(count("n"))
            .build("ba")
            .plan
        )
        executor.execute(ab)  # cache now holds ab's compilation
        spliced = Table(
            "pre", {"i_cat": np.array([1, 1, 2]), "s_item": np.array([0, 1, 2])}
        )
        run = executor.run(ba, overrides={(0,): spliced})
        assert run.cardinalities[(0,)] == 3
        assert int(run.table.column("n").sum()) == 3

    def test_cache_disabled(self, sales_db):
        executor = Executor(sales_db, plan_cache_size=0)
        executor.execute(star(sales_db))
        result = executor.execute(star(sales_db))
        assert not result.plan_cache_hit
        assert executor.plan_cache.stats()["size"] == 0

    def test_timings_report(self, sales_db):
        executor = Executor(sales_db)
        executor.execute(star(sales_db))
        executor.execute(star(sales_db))
        timings = executor.timings()
        assert timings["compile_seconds"] >= 0.0
        assert timings["execute_seconds"] > 0.0
        assert timings["plan_cache"]["hits"] == 1
        assert timings["plan_cache"]["misses"] == 1
        # A serial run also refreshes the memory-arena gauges: no segment
        # is mapped outside a parallel query.
        assert executor.registry.value("memory.live_segments") == 0
