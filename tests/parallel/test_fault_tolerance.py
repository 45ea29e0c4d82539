"""End-to-end fault tolerance: injected crashes, stragglers and corruption
across every pool backend, plus sample-aware graceful degradation.

The invariants under test mirror the system's claims:

* a crashed/corrupted attempt is retried and the recovered run is
  *bit-identical* to the fault-free run (counter-based sampling makes
  re-execution deterministic);
* a permanently lost partition degrades uniform/universe-sampled queries to
  a re-weighted :class:`PartialResult` instead of failing;
* plans that cannot degrade (distinct-sampled, exact) fall back to one
  serial re-execution, and only a failing fallback raises
  :class:`DegradedResultError`.
"""

import numpy as np
import pytest

from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor, PartialResult
from repro.errors import DegradedResultError
from repro.parallel import Fault, FaultPlan, ParallelOptions
from repro.parallel.tasks import RetryPolicy
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

DEGREE = 4
POOLS = ("inline", "thread", "process")

#: Fast backoff so retry-heavy tests stay quick.
FAST = RetryPolicy(backoff_base=0.005, backoff_max=0.05, poll_interval=0.005)


def sampled(builder, spec):
    return from_node(SamplerNode(builder.node, spec))


def faulted_executor(db, fault_plan, pool="inline", retry=FAST):
    return Executor(
        db,
        parallelism=DEGREE,
        parallel_options=ParallelOptions(
            pool=pool,
            min_partition_rows=1_000,
            # Oversubscribe so 1-core CI still exercises the concurrent
            # scheduler instead of the single-worker inline short-circuit.
            max_workers=DEGREE + 1,
            retry=retry,
            fault_plan=fault_plan,
        ),
    )


def assert_bit_identical(expected, actual):
    e, a = expected.table, actual.table
    assert e.column_names == a.column_names
    assert e.num_rows == a.num_rows
    for c in e.column_names:
        np.testing.assert_array_equal(e.column(c), a.column(c), err_msg=c)


@pytest.fixture(scope="module")
def uniform_query(sales_db):
    return (
        sampled(scan(sales_db, "sales"), UniformSpec(0.1, seed=42))
        .groupby("s_item")
        .agg(sum_(col("s_amount"), "total"), count("n"))
        .orderby("s_item")
        .build("uniform_ft")
    )


@pytest.fixture(scope="module")
def universe_query(sales_db):
    return (
        sampled(scan(sales_db, "sales"), UniverseSpec(("s_cust",), 0.25, seed=7))
        .groupby("s_day")
        .agg(sum_(col("s_amount"), "total"))
        .orderby("s_day")
        .build("universe_ft")
    )


@pytest.fixture(scope="module")
def distinct_query(sales_db):
    return (
        sampled(scan(sales_db, "sales"), DistinctSpec(("s_item",), delta=8, p=0.2, seed=5))
        .groupby("s_item")
        .agg(sum_(col("s_amount"), "total"))
        .orderby("s_item")
        .build("distinct_ft")
    )


class TestRecoveryIsBitIdentical:
    """Crashed/corrupt attempts are retried; the answer never changes."""

    @pytest.mark.parametrize("pool", POOLS)
    def test_uniform_crash_recovers(self, sales_db, uniform_query, pool):
        serial = Executor(sales_db).execute(uniform_query)
        plan = FaultPlan([Fault(0, 0, "crash"), Fault(2, 0, "crash")])
        result = faulted_executor(sales_db, plan, pool=pool).execute(uniform_query)
        assert result.parallel.strategy == "round-robin[sales]"
        assert result.parallel.task_retries >= 2
        assert result.parallel.faults_injected == 2
        assert not result.degraded
        assert_bit_identical(serial, result)

    @pytest.mark.parametrize("pool", POOLS)
    def test_corrupt_result_is_rejected_and_retried(self, sales_db, uniform_query, pool):
        serial = Executor(sales_db).execute(uniform_query)
        plan = FaultPlan([Fault(1, 0, "corrupt")])
        result = faulted_executor(sales_db, plan, pool=pool).execute(uniform_query)
        assert result.parallel.task_retries >= 1
        assert_bit_identical(serial, result)
        errors = [e for e in result.parallel.failed_partitions]
        assert errors == []  # recovered, not lost

    @pytest.mark.parametrize("pool", POOLS)
    def test_pickle_bomb_is_survived(self, sales_db, uniform_query, pool):
        serial = Executor(sales_db).execute(uniform_query)
        plan = FaultPlan([Fault(3, 0, "pickle")])
        result = faulted_executor(sales_db, plan, pool=pool).execute(uniform_query)
        assert result.parallel.task_retries >= 1
        assert_bit_identical(serial, result)

    def test_corrupt_lineage_column_is_rejected_and_retried(self, sales_db):
        # An exact plan ships no weight column, so corrupt_table damages the
        # payload by dropping its last column — a lineage column. Validation
        # must catch the missing lineage (not just the logical output
        # columns), or the damaged table would crash merge_rows downstream.
        query = (
            scan(sales_db, "sales")
            .groupby("s_item")
            .agg(sum_(col("s_amount"), "total"))
            .orderby("s_item")
            .build("exact_ft")
        )
        serial = Executor(sales_db).execute(query)
        plan = FaultPlan([Fault(1, 0, "corrupt")])
        result = faulted_executor(sales_db, plan).execute(query)
        assert result.parallel.strategy == "round-robin[sales]"
        assert result.parallel.task_retries >= 1
        assert_bit_identical(serial, result)

    def test_universe_crash_recovers(self, sales_db, universe_query):
        serial = Executor(sales_db).execute(universe_query)
        plan = FaultPlan([Fault(2, 0, "crash")])
        result = faulted_executor(sales_db, plan, pool="thread").execute(universe_query)
        assert result.parallel.task_retries >= 1
        assert_bit_identical(serial, result)

    def test_hang_straggles_but_answer_is_unchanged(self, sales_db, uniform_query):
        serial = Executor(sales_db).execute(uniform_query)
        plan = FaultPlan([Fault(1, 0, "hang", seconds=0.6)])
        retry = RetryPolicy(
            backoff_base=0.005, speculation_min_seconds=0.1, poll_interval=0.005
        )
        result = faulted_executor(sales_db, plan, pool="thread", retry=retry).execute(
            uniform_query
        )
        assert result.parallel.speculative_launches >= 1
        assert result.parallel.speculative_wins >= 1
        assert_bit_identical(serial, result)

    def test_seeded_chaos_runs_are_reproducible(self, sales_db, uniform_query):
        plan = FaultPlan.random(seed=11, num_partitions=DEGREE, crashes=1, hangs=0)
        first = faulted_executor(sales_db, plan, pool="inline").execute(uniform_query)
        second = faulted_executor(sales_db, plan, pool="inline").execute(uniform_query)
        assert_bit_identical(first, second)
        assert first.parallel.task_retries == second.parallel.task_retries


class TestGracefulDegradation:
    def test_lost_partition_yields_partial_result(self, sales_db, uniform_query):
        result = faulted_executor(
            sales_db, FaultPlan.lose_partition(1), retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
        ).execute(uniform_query)
        assert isinstance(result, PartialResult)
        assert result.degraded
        assert result.lost_partitions == (1,)
        assert result.coverage == pytest.approx((DEGREE - 1) / DEGREE)
        assert result.reweight_factor == pytest.approx(DEGREE / (DEGREE - 1))
        assert result.parallel.degraded
        assert result.parallel.coverage == pytest.approx(0.75)

    def test_reweighted_estimate_stays_close_to_truth(self, sales_db, uniform_query):
        truth = sales_db.table("sales").column("s_amount").sum()
        result = faulted_executor(
            sales_db, FaultPlan.lose_partition(2), retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
        ).execute(uniform_query)
        estimate = result.table.column("total").sum()
        # A 10% uniform sample at 75% coverage, re-weighted: the total is
        # still an unbiased estimate of the full-data sum.
        assert abs(estimate - truth) / truth < 0.1

    def test_degraded_counts_are_reweighted(self, sales_db, uniform_query):
        clean = faulted_executor(sales_db, None).execute(uniform_query)
        lost = faulted_executor(
            sales_db, FaultPlan.lose_partition(0), retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
        ).execute(uniform_query)
        # Estimated row counts are weight sums; the re-weighted survivors
        # should land near the fault-free estimate, not 25% below it.
        assert lost.table.column("n").sum() == pytest.approx(
            clean.table.column("n").sum(), rel=0.1
        )

    def test_distinct_sampled_plan_reexecutes_serially(self, sales_db, distinct_query):
        serial = Executor(sales_db).execute(distinct_query)
        result = faulted_executor(
            sales_db, FaultPlan.lose_partition(1), retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
        ).execute(distinct_query)
        assert not result.degraded
        assert result.parallel.strategy == "serial-fallback"
        assert "stratum" in result.parallel.reason or "lost" in result.parallel.reason
        assert_bit_identical(serial, result)

    def test_partial_merge_mode_reexecutes_serially(self, sales_db, uniform_query):
        executor = Executor(
            sales_db,
            parallelism=DEGREE,
            parallel_options=ParallelOptions(
                pool="inline",
                merge="partial",
                min_partition_rows=1_000,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.005),
                fault_plan=FaultPlan.lose_partition(3),
            ),
        )
        result = executor.execute(uniform_query)
        assert not result.degraded
        assert result.parallel.strategy == "serial-fallback"

    def test_all_partitions_lost_raises(self, sales_db, uniform_query):
        plan = FaultPlan((), lost_partitions=range(DEGREE))
        with pytest.raises(DegradedResultError):
            faulted_executor(
                sales_db, plan, retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
            ).execute(uniform_query)


class TestMetricsAndStats:
    def test_fault_ledger_accumulates(self, sales_db, uniform_query):
        executor = faulted_executor(sales_db, FaultPlan([Fault(0, 0, "crash")]))
        executor.execute(uniform_query)
        executor.execute(uniform_query)
        ledger = executor.timings()["fault_tolerance"]
        assert ledger["queries"] == 2
        assert ledger["tasks"] == 2 * DEGREE
        assert ledger["retries"] >= 2
        assert ledger["faults_injected"] == 2
        assert "task_latency_s" in ledger

    def test_one_store_after_a_mixed_run(self, sales_db, uniform_query, distinct_query):
        """A clean parallel query, a serial fallback, a retried task and a
        lost-partition serial re-execution: the ledger, the timings and the
        registry are one store, and one reset zeroes all of it."""
        options = ParallelOptions(
            pool="inline",
            min_partition_rows=1_000,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.005),
        )
        executor = Executor(sales_db, parallelism=DEGREE, parallel_options=options)
        too_small = scan(sales_db, "item").groupby("i_cat").agg(count("n")).build("tiny")
        metrics = [executor.execute(uniform_query).parallel]
        metrics.append(executor.execute(too_small).parallel)
        options.fault_plan = FaultPlan([Fault(0, 0, "crash")])
        metrics.append(executor.execute(uniform_query).parallel)
        options.fault_plan = FaultPlan.lose_partition(0)
        metrics.append(executor.execute(distinct_query).parallel)
        assert [m.strategy == "serial-fallback" for m in metrics] == [False, True, False, True]
        assert [m.task_retries > 0 for m in metrics] == [False, False, True, True]

        timings, registry = executor.timings(), executor.registry
        ledger = timings["fault_tolerance"]
        assert ledger["queries"] == registry.value("parallel.queries") == 4
        assert ledger["tasks"] == registry.value("parallel.tasks") == 3 * DEGREE
        assert (
            ledger["retries"]
            == registry.value("parallel.retries")
            == sum(m.task_retries for m in metrics)
        )
        assert ledger["faults_injected"] == registry.value("parallel.faults_injected") == 2
        assert ledger["failed_tasks"] == registry.value("parallel.failed_tasks") == 1
        assert ledger["serial_reexecutions"] == 1
        assert registry.value("parallel.serial_fallbacks") == 2
        assert ledger["degraded_queries"] == 0
        # executor.*: the two serial runs recorded themselves; each of the
        # three parallel phases (the failed one included) adds one
        # observation of what it compiled and ran outside its tasks.
        assert registry.value("executor.queries") == 2
        compiled = registry.histogram("executor.compile_seconds").snapshot()
        executed = registry.histogram("executor.execute_seconds").snapshot()
        assert compiled["count"] == executed["count"] == 5
        assert timings["compile_seconds"] == compiled["sum"] > 0.0
        assert timings["execute_seconds"] == executed["sum"] > 0.0
        cache = timings["plan_cache"]
        assert executor.plan_cache.stats() == {"size": cache["size"], "capacity": 128}
        assert cache["size"] > 0
        assert cache["hits"] == registry.value("plan_cache.hits") > 0
        assert cache["misses"] == registry.value("plan_cache.misses") > 0

        executor.reset_metrics()
        after = executor.timings()
        assert after["compile_seconds"] == after["execute_seconds"] == 0.0
        assert set(after["fault_tolerance"].values()) == {0}
        assert after["plan_cache"] == {**cache, "hits": 0, "misses": 0, "evictions": 0}
        assert registry.total("parallel.queries") == registry.total("executor.queries") == 0

    def test_latency_percentiles_present(self, sales_db, uniform_query):
        executor = faulted_executor(sales_db, None)
        executor.execute(uniform_query)
        pct = executor.timings()["fault_tolerance"]["task_latency_s"]
        assert set(pct) == {"p50", "p95", "max"}
        assert pct["p50"] <= pct["max"]

    def test_serial_reexecution_is_counted(self, sales_db, distinct_query):
        executor = faulted_executor(
            sales_db, FaultPlan.lose_partition(0), retry=RetryPolicy(max_attempts=2, backoff_base=0.005)
        )
        executor.execute(distinct_query)
        ledger = executor.timings()["fault_tolerance"]
        assert ledger["serial_reexecutions"] == 1
        assert ledger["failed_tasks"] == 1
