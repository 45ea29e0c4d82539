"""A fan-out join at the parallel split ships its matches, not its output.

When the split's root is an inner join the aggregate above reads unbuilt
(it keys on probe-side columns only), and every probe row lives in one
partition beside all its matches, each worker ships the join's matches
(:class:`~repro.engine.operators.JoinParts`) and the parent orders the
probe rows (:func:`~repro.parallel.merge.merge_matches`). The bar is the
built merge, the same run with every worker shipping its output: the same
answer bits, the same cardinalities, and both equal to the serial answer.
Every other shape keeps shipping built rows.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import count, count_distinct, sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor
from repro.engine.governance import GovernanceContext
from repro.engine.operators import JoinedRows
from repro.engine.table import Database, Table
from repro.errors import BudgetExceeded
from repro.parallel import Fault, FaultPlan, ParallelOptions
from repro.parallel import executor as parallel_executor
from repro.parallel.tasks import RetryPolicy
from repro.samplers.distinct import DistinctSpec
from repro.service.protocol import table_digest

FAST = RetryPolicy(backoff_base=0.005, backoff_max=0.05, poll_interval=0.005, speculate=False)


def executor(db, degree=2, pool="thread", **options):
    options.setdefault("min_partition_rows", 1_000)
    return Executor(
        db, parallelism=degree, parallel_options=ParallelOptions(pool=pool, **options)
    )


@pytest.fixture()
def merges(monkeypatch):
    """The merge functions the parallel executor called, in order."""
    called = []
    for name in ("merge_matches", "merge_rows"):
        real = getattr(parallel_executor, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(parallel_executor, name, spy)
    return called


def both_ways(db, plan, monkeypatch, governance=None, **options):
    """(matched run, built run) of one plan: as the executor ships it, and
    with every worker shipping its built output."""
    matched = executor(db, **options).execute(plan, governance)
    with monkeypatch.context() as patch:
        patch.setattr(parallel_executor, "_ships_matches", lambda *args: False)
        built = executor(db, **options).execute(plan, governance)
    return matched, built


def assert_like_built_and_serial(db, plan, matched, built):
    assert table_digest(matched.table) == table_digest(built.table)
    assert matched.cardinalities == built.cardinalities
    assert matched.cost == built.cost
    serial = Executor(db).execute(plan).table
    assert table_digest(matched.table) == table_digest(serial)


# -- TPC-DS: the fact-fact joins --------------------------------------------------


@pytest.fixture(scope="module")
def tpcds():
    from repro.workloads.tpcds import generate_tpcds

    return generate_tpcds(scale=0.05, seed=1)


def planned(db, name, kind):
    from repro.optimizer.planner import QuickrPlanner
    from repro.workloads.tpcds import query_by_name

    planner, query = QuickrPlanner(db), query_by_name(db, name)
    return (planner.plan_baseline(query) if kind == "exact" else planner.plan(query)).plan


class TestTpcds:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("kind", ["exact", "quickr"])
    @pytest.mark.parametrize("name", ["q12", "q13", "q14"])
    def test_same_bits_and_cardinalities_as_the_built_merge(
        self, tpcds, merges, monkeypatch, name, kind, degree, pool
    ):
        plan = planned(tpcds, name, kind)
        matched, built = both_ways(tpcds, plan, monkeypatch, degree=degree, pool=pool)
        assert merges == ["merge_matches", "merge_rows"]
        assert table_digest(matched.table) == table_digest(built.table)
        assert matched.cardinalities == built.cardinalities
        assert matched.cost == built.cost
        assert matched.parallel.tasks == built.parallel.tasks == degree
        if not any(
            isinstance(n, SamplerNode) and isinstance(n.spec, DistinctSpec) for n in plan.walk()
        ):
            serial = Executor(tpcds).execute(plan)
            assert table_digest(matched.table) == table_digest(serial.table)

    def test_budget_below_the_built_worker_peak_raises_the_same(self, tpcds, monkeypatch):
        """q14 exact, governed: one byte under the largest live-byte count a
        worker of the built run reached. A worker is charged its join's
        output as the table it would have built, so both runs trip there."""

        class Ledger(GovernanceContext):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.worker_bytes = []

            def check(self, live_bytes=None):
                in_worker = threading.current_thread() is not threading.main_thread()
                if live_bytes is not None and in_worker:
                    self.worker_bytes.append(live_bytes)
                return super().check(live_bytes)

        plan = planned(tpcds, "q14", "exact")
        free = Ledger()
        with monkeypatch.context() as patch:
            patch.setattr(parallel_executor, "_ships_matches", lambda *args: False)
            executor(tpcds).execute(plan, free)
        budget = max(free.worker_bytes) - 1
        errors, peaks = [], []
        for ships in (True, False):
            governance = Ledger(memory_budget_bytes=budget)
            with monkeypatch.context() as patch:
                if not ships:
                    patch.setattr(parallel_executor, "_ships_matches", lambda *args: False)
                with pytest.raises(BudgetExceeded) as raised:
                    executor(tpcds).execute(plan, governance)
            errors.append(str(raised.value))
            peaks.append(governance.peak_live_bytes)
        assert errors[0] == errors[1]
        assert peaks == [budget + 1] * 2


# -- two tables ---------------------------------------------------------------


def two_tables(left_keys, right_keys, seed=0, **extra_left):
    """A probe side ``l`` and a build side ``r`` joined on ``lk = rk``."""
    rng = np.random.default_rng(seed)
    n_left, n_right = len(left_keys), len(right_keys)
    left = {
        "lk": np.asarray(left_keys),
        "g": rng.integers(0, 4, n_left),
        "x": rng.normal(3.0, 9.0, n_left),
        **extra_left,
    }
    right = {
        "rk": np.asarray(right_keys),
        "b": rng.integers(0, 3, n_right),
        "y": rng.normal(-1.0, 4.0, n_right),
    }
    db = Database()
    db.register(Table("l", left))
    db.register(Table("r", right))
    return db


def query(db, group_by=("g",), how="inner", probe=None):
    return (
        (probe or scan(db, "l"))
        .join(scan(db, "r"), on=[("lk", "rk")], how=how)
        .groupby(*group_by)
        .agg(sum_(col("x"), "sx"), sum_(col("y"), "sy"), count_distinct(col("lk"), "dk"),
             count("n"))
        .build("two_tables")
        .plan
    )


class TestShapes:
    def test_probe_keys_over_a_partitioned_probe_side_ship_matches(self, merges, monkeypatch):
        rng = np.random.default_rng(1)
        db = two_tables(rng.integers(0, 200, 3000), rng.integers(0, 200, 600))
        plan = query(db)
        matched, built = both_ways(db, plan, monkeypatch)
        assert matched.parallel.strategy.startswith("round-robin[l]")
        assert merges == ["merge_matches", "merge_rows"]
        assert_like_built_and_serial(db, plan, matched, built)

    def test_a_projected_probe_side_ships_matches(self, merges, monkeypatch):
        # A project carries the lineage the merge orders by: probe rows
        # below one keep their order, and the answer its serial bits.
        rng = np.random.default_rng(2)
        db = two_tables(rng.integers(0, 200, 3000), rng.integers(0, 200, 600))
        plan = query(db, probe=scan(db, "l").derive(x2=col("x") * 2.0))
        matched, built = both_ways(db, plan, monkeypatch)
        assert merges == ["merge_matches", "merge_rows"]
        assert_like_built_and_serial(db, plan, matched, built)

    @pytest.mark.parametrize("shape", ["build-partitioned", "build-group", "left-outer"])
    def test_other_shapes_ship_built_rows(self, merges, monkeypatch, shape):
        rng = np.random.default_rng(2)
        left_keys, right_keys = rng.integers(0, 200, 3000), rng.integers(0, 200, 600)
        if shape == "build-partitioned":
            # The build side is the larger input: it is partitioned, the
            # probe side broadcast, so a probe row's matches are split.
            left_keys, right_keys = right_keys, left_keys
        db = two_tables(left_keys, right_keys)
        plan = query(
            db,
            group_by=("b",) if shape == "build-group" else ("g",),
            how="left" if shape == "left-outer" else "inner",
        )
        matched, built = both_ways(db, plan, monkeypatch)
        assert "merge_matches" not in merges
        assert_like_built_and_serial(db, plan, matched, built)
        if shape == "build-partitioned":
            assert matched.parallel.strategy.startswith("round-robin[r]")
        if shape == "left-outer":
            assert matched.parallel.strategy == "serial-fallback"


class TestPartitionMixes:
    """Round-robin on the probe side at degree 2: even rows run in one
    partition, odd rows in the other."""

    def test_a_partition_without_fan_out_ships_built_rows(self, merges, monkeypatch):
        n = 3000
        rows = np.arange(n)
        # Even rows hit build keys held once, odd rows keys held three times.
        left_keys = np.where(rows % 2 == 0, rows % 100, 100 + rows % 50)
        right_keys = np.concatenate([np.arange(100), np.repeat(np.arange(100, 150), 3)])
        db = two_tables(left_keys, right_keys)
        plan = query(db)
        fanned_out = []
        real = JoinedRows.parts
        monkeypatch.setattr(JoinedRows, "parts", lambda self: fanned_out.append(1) or real(self))
        matched, built = both_ways(db, plan, monkeypatch)
        assert fanned_out == [1]  # one partition shipped matches, one rows
        assert merges == ["merge_rows", "merge_rows"]
        assert_like_built_and_serial(db, plan, matched, built)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_partitions_without_a_match(self, merges, monkeypatch, degree):
        n = 3000
        rows = np.arange(n)
        # Only every sixth row matches: at degree 2 one partition is empty,
        # at degree 3 two are.
        left_keys = np.where(rows % 6 == 0, rows % 40, 1_000 + rows)
        right_keys = np.repeat(np.arange(40), 2)
        db = two_tables(left_keys, right_keys)
        plan = query(db)
        matched, built = both_ways(db, plan, monkeypatch, degree=degree)
        assert merges == ["merge_matches", "merge_rows"]
        assert_like_built_and_serial(db, plan, matched, built)

    def test_nan_join_and_group_keys(self, merges, monkeypatch):
        rng = np.random.default_rng(3)
        left_keys = rng.integers(0, 60, 3000).astype(np.float64)
        left_keys[::7] = np.nan
        right_keys = rng.integers(0, 60, 400).astype(np.float64)
        right_keys[::5] = np.nan
        group = rng.integers(0, 3, 3000).astype(np.float64)
        group[::11] = np.nan
        db = two_tables(left_keys, right_keys, f=group)
        for group_by in (("g",), ("f",), ("f", "g")):
            plan = query(db, group_by=group_by)
            merges.clear()
            matched, built = both_ways(db, plan, monkeypatch)
            assert merges == ["merge_matches", "merge_rows"]
            assert_like_built_and_serial(db, plan, matched, built)


@settings(max_examples=40, deadline=None)
@given(
    n_left=st.integers(0, 400),
    n_right=st.integers(0, 120),
    span=st.integers(1, 80),
    degree=st.sampled_from([2, 3]),
    copartition=st.booleans(),
    group_by=st.sampled_from([(), ("g",), ("b",), ("g", "b")]),
    seed=st.integers(0, 2**16),
)
def test_random_two_table_shapes(n_left, n_right, span, degree, copartition, group_by, seed):
    """Whichever merge a shape takes, the parallel answer is the serial one.
    ``copartition`` lets both inputs be partitioned on the join keys;
    otherwise only the larger input is, round-robin."""
    rng = np.random.default_rng(seed)
    db = two_tables(rng.integers(0, span, n_left), rng.integers(0, span, n_right), seed)
    plan = query(db, group_by=group_by)
    threshold = 1 if copartition else max(n_left, n_right, 1)
    answer = executor(db, degree=degree, min_partition_rows=threshold).execute(plan)
    assert table_digest(answer.table) == table_digest(Executor(db).execute(plan).table)


# -- faults -------------------------------------------------------------------


def test_corrupt_matches_are_rejected_and_retried(tpcds, merges, monkeypatch):
    problems = []
    real = parallel_executor._matches_problem
    monkeypatch.setattr(
        parallel_executor,
        "_matches_problem",
        lambda *args: problems.append(real(*args)) or problems[-1],
    )
    plan = planned(tpcds, "q14", "exact")
    faults = FaultPlan([Fault(partition=0, attempt=0, kind="corrupt")])
    result = executor(tpcds, fault_plan=faults, retry=FAST).execute(plan)
    assert result.parallel.task_retries == 1
    assert len(problems) == 3  # partition 0 twice, partition 1 once
    assert sum(problem is not None for problem in problems) == 1
    assert merges == ["merge_matches"]
    assert table_digest(result.table) == table_digest(Executor(tpcds).execute(plan).table)
