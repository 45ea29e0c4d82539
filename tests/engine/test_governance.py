"""In-flight governance at the engine layer: tokens, contracts, checkpoints.

The invariants under test:

* a governed execution with generous limits is *bit-identical* to an
  ungoverned one (governance observes, it never perturbs);
* contract violations surface as the typed taxonomy
  (:class:`QueryCancelled` / :class:`DeadlineExceeded` /
  :class:`BudgetExceeded`), never a generic failure or a hang;
* cancellation is honored at the next operator boundary — the whole
  point of cooperative checkpoints riding the operator loop.
"""

import threading
import time

import numpy as np
import pytest

from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor
from repro.engine.governance import CancellationToken, GovernanceContext
from repro.engine.table import Table
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    GovernanceError,
    QueryCancelled,
)
from repro.samplers.uniform import UniformSpec


@pytest.fixture(scope="module")
def grouped_query(sales_db):
    return (
        from_node(SamplerNode(scan(sales_db, "sales").node, UniformSpec(0.2, seed=11)))
        .groupby("s_item")
        .agg(sum_(col("s_amount"), "total"), count("n"))
        .orderby("s_item")
        .build("governed_engine")
    )


class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.cancel("client-disconnect")
        assert not token.cancel("shutdown-drain")  # idempotent, first reason kept
        assert token.cancelled
        assert token.reason == "client-disconnect"

    def test_shared_byte_mirrors_event(self):
        token = CancellationToken()
        assert token._shared[0] == 0
        token.cancel("x")
        assert token._shared[0] == 1


class TestGovernanceContext:
    def test_check_passes_when_unbounded(self):
        ctx = GovernanceContext()
        for _ in range(5):
            ctx.check(live_bytes=10**12)
        assert ctx.checks == 5
        assert ctx.peak_live_bytes == 10**12

    def test_cancel_raises_typed_with_reason(self):
        ctx = GovernanceContext()
        ctx.token.cancel("client-disconnect")
        with pytest.raises(QueryCancelled) as info:
            ctx.check()
        assert info.value.reason_code == "client-disconnect"
        assert isinstance(info.value, GovernanceError)

    def test_expired_deadline_raises(self):
        ctx = GovernanceContext(deadline_at=time.monotonic() - 0.01)
        assert ctx.expired()
        with pytest.raises(DeadlineExceeded) as info:
            ctx.check()
        assert info.value.reason_code == "deadline"

    def test_budget_raises_and_tracks_peak(self):
        ctx = GovernanceContext(memory_budget_bytes=100)
        ctx.check(live_bytes=60)
        with pytest.raises(BudgetExceeded) as info:
            ctx.check(live_bytes=101)
        assert info.value.reason_code == "budget"
        assert ctx.peak_live_bytes == 101

    def test_with_timeout_sets_absolute_deadline(self):
        ctx = GovernanceContext.with_timeout(60.0)
        remaining = ctx.remaining_seconds()
        assert 59.0 < remaining <= 60.0
        assert not ctx.should_abort()

    def test_should_abort_is_non_raising(self):
        ctx = GovernanceContext(deadline_at=time.monotonic() - 1.0)
        assert ctx.should_abort()  # no exception
        ctx2 = GovernanceContext()
        ctx2.token.cancel("x")
        assert ctx2.should_abort()


class TestTableNbytes:
    def test_counts_column_buffers(self):
        table = Table("t", {"a": np.arange(10, dtype=np.int64),
                            "b": np.ones(10, dtype=np.float64)})
        assert table.estimated_bytes() == 10 * 8 * 2
        # What a governed run is charged: a coded column counts its codes.
        coded = table.with_columns({"s": np.asarray(["x", "y"] * 5)}).encoded()
        assert coded.estimated_bytes() == 10 * 8 * 2 + 10 * 4


class TestGovernedSerialExecution:
    def test_governed_run_is_bit_identical(self, sales_db, grouped_query):
        executor = Executor(sales_db)
        plain = executor.execute(grouped_query)
        ctx = GovernanceContext.with_timeout(60.0, memory_budget_bytes=1 << 30)
        governed = executor.execute(grouped_query, governance=ctx)
        assert plain.table.column_names == governed.table.column_names
        for name in plain.table.column_names:
            np.testing.assert_array_equal(
                plain.table.column(name), governed.table.column(name)
            )
        # The operator loop actually polled the contract.
        assert ctx.checks > 0
        assert ctx.peak_live_bytes > 0

    def test_pre_cancelled_query_never_runs(self, sales_db, grouped_query):
        executor = Executor(sales_db)
        ctx = GovernanceContext()
        ctx.token.cancel("caller-gone")
        with pytest.raises(QueryCancelled):
            executor.execute(grouped_query, governance=ctx)

    def test_expired_deadline_fails_fast(self, sales_db, grouped_query):
        executor = Executor(sales_db)
        ctx = GovernanceContext(deadline_at=time.monotonic() - 0.001)
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            executor.execute(grouped_query, governance=ctx)
        assert time.perf_counter() - t0 < 1.0

    def test_tiny_budget_trips_typed(self, sales_db, grouped_query):
        executor = Executor(sales_db)
        ctx = GovernanceContext(memory_budget_bytes=64)
        with pytest.raises(BudgetExceeded):
            executor.execute(grouped_query, governance=ctx)

    def test_mid_flight_cancel_stops_at_operator_boundary(self, sales_db, grouped_query):
        # Fire the token from another thread and require the unwind within
        # a tight bound. Real work (not sleeps) between checkpoints is what
        # makes the bound honest.
        executor = Executor(sales_db)
        ctx = GovernanceContext()
        fired_at = []

        def fire():
            time.sleep(0.005)
            fired_at.append(time.perf_counter())
            ctx.token.cancel("mid-flight")

        trigger = threading.Thread(target=fire)
        trigger.start()
        with pytest.raises(QueryCancelled):
            while True:  # keep the engine busy until the token lands
                executor.execute(grouped_query, governance=ctx)
        stopped_at = time.perf_counter()
        trigger.join()
        assert stopped_at - fired_at[0] < 0.25  # one operator boundary, not one query
