"""Governance across the parallel scheduler: abort, salvage, clean unwind.

The invariants under test:

* a governed parallel run with generous limits matches the ungoverned run
  bit-for-bit on every pool backend;
* cancellation/deadline/budget abort the scheduler with the typed error —
  queued tasks are abandoned, live attempts discarded, and (because the
  session-wide leak fixture audits /dev/shm) no segment survives;
* a mid-flight deadline/budget trip on a *degradable* plan salvages the
  survivors-so-far into a re-weighted :class:`PartialResult` carrying the
  governance ``abort_reason`` — degrade accuracy, not availability;
* cancellation never salvages: a cancelled query has no one waiting.
"""

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
from repro.errors import DeadlineExceeded, QueryCancelled
from repro.parallel import Fault, FaultPlan, ParallelOptions
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import RetryPolicy, TaskRuntime
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec

DEGREE = 4
POOLS = ("inline", "thread", "process")

FAST = RetryPolicy(backoff_base=0.005, backoff_max=0.05, poll_interval=0.005,
                   speculate=False)


def governed_executor(db, pool="thread", fault_plan=None, **overrides):
    options = dict(
        pool=pool,
        min_partition_rows=1_000,
        # Oversubscribe so 1-core CI still runs tasks concurrently.
        max_workers=DEGREE + 1,
        retry=FAST,
        fault_plan=fault_plan,
    )
    options.update(overrides)
    return Executor(db, parallelism=DEGREE, parallel_options=ParallelOptions(**options))


@pytest.fixture(scope="module")
def uniform_query(sales_db):
    return (
        from_node(SamplerNode(scan(sales_db, "sales").node, UniformSpec(0.1, seed=42)))
        .groupby("s_item")
        .agg(sum_(col("s_amount"), "total"), count("n"))
        .orderby("s_item")
        .build("governed_uniform")
    )


@pytest.fixture(scope="module")
def distinct_query(sales_db):
    return (
        from_node(SamplerNode(
            scan(sales_db, "sales").node,
            DistinctSpec(("s_item",), delta=8, p=0.2, seed=5),
        ))
        .groupby("s_item")
        .agg(sum_(col("s_amount"), "total"))
        .orderby("s_item")
        .build("governed_distinct")
    )


class TestGovernedRunsAreUnperturbed:
    @pytest.mark.parametrize("pool", POOLS)
    def test_bit_identical_under_generous_contract(self, sales_db, uniform_query, pool):
        executor = governed_executor(sales_db, pool=pool)
        plain = executor.execute(uniform_query)
        ctx = GovernanceContext.with_timeout(120.0, memory_budget_bytes=1 << 30)
        governed = executor.execute(uniform_query, governance=ctx)
        assert not governed.degraded
        for name in plain.table.column_names:
            np.testing.assert_array_equal(
                plain.table.column(name), governed.table.column(name), err_msg=name
            )


class TestAbortIsTypedAndClean:
    @pytest.mark.parametrize("pool", POOLS)
    def test_pre_cancelled_raises_before_work(self, sales_db, uniform_query, pool):
        ctx = GovernanceContext()
        ctx.token.cancel("caller-gone")
        with pytest.raises(QueryCancelled) as info:
            governed_executor(sales_db, pool=pool).execute(uniform_query, governance=ctx)
        assert info.value.reason_code == "caller-gone"

    def test_mid_flight_cancel_stops_within_task_boundary(self, sales_db, uniform_query):
        # Stall every partition with a hang fault so the run is provably
        # mid-flight when the token lands; the scheduler's poll must then
        # unwind without waiting for the hangs to finish.
        plan = FaultPlan([Fault(p, 0, "hang", seconds=2.0) for p in range(DEGREE)])
        executor = governed_executor(sales_db, pool="thread", fault_plan=plan)
        ctx = GovernanceContext()
        timer = threading.Timer(0.2, ctx.token.cancel, args=("mid-flight",))
        timer.start()
        t0 = time.perf_counter()
        with pytest.raises(QueryCancelled):
            executor.execute(uniform_query, governance=ctx)
        elapsed = time.perf_counter() - t0
        timer.cancel()
        # Unwound at the scheduler's next poll, not after the 2 s hangs.
        assert elapsed < 1.5

    def test_cancel_never_salvages_even_when_degradable(self, sales_db, uniform_query):
        # Partitions 2/3 hang; 0/1 complete. Cancel mid-flight: despite
        # two survivors and a degradable plan, the answer is *not* a
        # PartialResult — nobody is waiting for it.
        plan = FaultPlan([Fault(p, 0, "hang", seconds=1.5) for p in (2, 3)])
        executor = governed_executor(sales_db, pool="thread", fault_plan=plan)
        ctx = GovernanceContext()
        timer = threading.Timer(0.3, ctx.token.cancel, args=("client-disconnect",))
        timer.start()
        with pytest.raises(QueryCancelled):
            executor.execute(uniform_query, governance=ctx)
        timer.cancel()


class TestBackoffHonoursTheContract:
    @pytest.mark.parametrize("pool", ("inline", "thread"))
    def test_deadline_during_retry_backoff_launches_nothing(self, pool):
        # Every first attempt fails and earns a 0.75-1.25 s backoff; the
        # deadline lands inside it. The pause is sliced by poll_interval,
        # so the run returns at the deadline and no retry is launched.
        calls = []

        def fails_first_attempt(spec):
            calls.append((spec.partition, spec.attempt))
            if spec.attempt == 0:
                raise RuntimeError("transient")
            return spec.partition

        runtime = TaskRuntime(
            WorkerPool(pool, 2),
            RetryPolicy(backoff_base=1.0, backoff_max=1.0, speculate=False),
        )
        t0 = time.perf_counter()
        report = runtime.run(
            fails_first_attempt, 2, governance=GovernanceContext.with_timeout(0.1)
        )
        elapsed = time.perf_counter() - t0
        assert isinstance(report.aborted, DeadlineExceeded)
        assert elapsed < 0.3
        assert all(attempt == 0 for _, attempt in calls), calls
        assert len(calls) == len(set(calls)) <= 2
        assert report.failed_partitions == (0, 1)
        assert all(o.errors[-1].kind == "governed" for o in report.outcomes)


class TestDeadlineSalvage:
    def test_survivors_become_partial_result(self, sales_db, uniform_query):
        # Two partitions finish fast, two hang past the deadline: the
        # governed abort must salvage the survivors into a re-weighted
        # partial answer tagged with the governance reason.
        plan = FaultPlan([Fault(p, 0, "hang", seconds=2.0) for p in (2, 3)])
        executor = governed_executor(sales_db, pool="thread", fault_plan=plan)
        ctx = GovernanceContext.with_timeout(0.5)
        result = executor.execute(uniform_query, governance=ctx)
        assert isinstance(result, PartialResult)
        assert result.degraded
        assert result.abort_reason == "deadline"
        assert set(result.lost_partitions) == {2, 3}
        assert result.coverage == pytest.approx(0.5)
        assert result.reweight_factor == pytest.approx(2.0)
        # The re-weighted estimate stays in the right ballpark of the
        # fault-free answer (unbiasedness is asserted statistically by the
        # chaos bench; here we check the rescale actually applied).
        full = governed_executor(sales_db, pool="thread").execute(uniform_query)
        expected = float(np.sum(full.table.column("total")))
        salvaged = float(np.sum(result.table.column("total")))
        assert salvaged == pytest.approx(expected, rel=0.5)

    def test_fault_loss_keeps_abort_reason_none(self, sales_db, uniform_query):
        # PR-4 behavior is unchanged: a partition lost to crashes (not
        # governance) yields a PartialResult without an abort_reason.
        executor = governed_executor(
            sales_db, pool="thread", fault_plan=FaultPlan.lose_partition(1)
        )
        result = executor.execute(uniform_query)
        assert isinstance(result, PartialResult)
        assert result.abort_reason is None

    def test_non_degradable_plan_raises_typed(self, sales_db, distinct_query):
        # Distinct-sampled plans cannot absorb lost partitions; a governed
        # abort must surface the deadline error, never a silent serial
        # re-execution that would blow the deadline it just enforced.
        plan = FaultPlan([Fault(p, 0, "hang", seconds=2.0) for p in range(DEGREE)])
        executor = governed_executor(sales_db, pool="thread", fault_plan=plan)
        ctx = GovernanceContext.with_timeout(0.4)
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            executor.execute(distinct_query, governance=ctx)
        assert time.perf_counter() - t0 < 1.5


class TestShmExhaustionFallback:
    def test_injected_exhaustion_falls_back_to_pickle(self, sales_db, uniform_query):
        # An shm fault makes one result's transport hit ENOSPC; the
        # attempt must still succeed via the pickle fallback, counted.
        fault_plan = FaultPlan([Fault(1, 0, "shm")])
        executor = governed_executor(sales_db, pool="process", fault_plan=fault_plan)
        plain = governed_executor(sales_db, pool="process").execute(uniform_query)
        result = executor.execute(uniform_query)
        assert result.parallel.transport == "shm"
        assert not result.degraded  # fallback, not failure
        fallbacks = executor.registry.value("transport.shm_fallbacks")
        assert fallbacks == 1.0
        for name in plain.table.column_names:
            np.testing.assert_array_equal(
                plain.table.column(name), result.table.column(name), err_msg=name
            )
