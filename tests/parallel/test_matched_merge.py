"""A fan-out join at the parallel split ships its matches, not its output.

When the split's root is an inner join whose probe side holds the
partitioned scan, every probe row lives in one partition beside all its
matches: a worker whose join fanned out ships the join's matches
(:class:`~repro.engine.operators.JoinParts`), and the parent orders the
probe rows (:func:`~repro.parallel.merge.merge_matches`). The bar is the
built side: each matched merge equals the row merge of its partitions'
joins built (``JoinedRows.built``), and the run's answer, cardinalities
and cost are the recursive oracle's, which builds every join, run over
each task's partitions and over the merged split. Every other shape keeps
shipping built rows.
"""

import collections
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.addressing import trace_to_scan
from repro.algebra.aggregates import count, count_distinct, sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode, Scan
from repro.engine.costmodel import cost_plan
from repro.engine.executor import Executor, PlanRunner
from repro.engine.governance import GovernanceContext
from repro.engine.metrics import ClusterConfig
from repro.engine.operators import JoinedRows
from repro.engine.table import Database, Table
from repro.errors import BudgetExceeded
from repro.parallel import Fault, FaultPlan, ParallelOptions
from repro.parallel import executor as parallel_executor
from repro.parallel import transport as shm_transport
from repro.parallel.plan import analyze_plan, build_worker_plan
from repro.parallel.tasks import RetryPolicy
from repro.samplers.distinct import DistinctSpec
from repro.service.protocol import table_digest
from tests.engine.test_compiled_equivalence import reference_run

FAST = RetryPolicy(backoff_base=0.005, backoff_max=0.05, poll_interval=0.005, speculate=False)


def executor(db, degree=2, pool="thread", **options):
    options.setdefault("min_partition_rows", 1_000)
    return Executor(
        db, parallelism=degree, parallel_options=ParallelOptions(pool=pool, **options)
    )


def assert_same_bits(got: Table, want: Table):
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.key_column(name).tobytes() == want.key_column(name).tobytes(), name


@pytest.fixture()
def merges(monkeypatch):
    """The merge functions the parallel executor called, in order. Each
    matched merge is checked against the row merge of its partitions'
    joins built, in their serial order."""
    called = []
    real_rows = parallel_executor.merge_rows
    for name in ("merge_matches", "merge_rows"):
        real = getattr(parallel_executor, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            called.append(_name)
            merged = _real(*args, **kwargs)
            if _name == "merge_matches":
                parts, columns = args
                built = [
                    JoinedRows.from_parts(
                        part, tuple(columns) + part.probe.lineage_column_names()
                    ).built()
                    for part in parts
                ]
                assert_same_bits(merged.built(), real_rows(built, columns=columns))
            return merged

        monkeypatch.setattr(parallel_executor, name, spy)
    return called


def both_ways(db, plan, monkeypatch, governance=None, **options):
    """(parallel run, built side) of one plan: the run as the executor
    ships it, and the recursive oracle's answer and cardinalities over the
    same partitions (:func:`oracle`), which builds every join."""
    placed, merged = [], []
    ship, run = shm_transport.RunTransport.ship_inputs, PlanRunner.run

    def ship_spy(self, partitions):
        placed.append(partitions)
        return ship(self, partitions)

    def run_spy(self, plan, **kwargs):
        if kwargs.get("overrides"):  # the upper plan, over the merged split
            merged.append(kwargs["overrides"])
        return run(self, plan, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(shm_transport.RunTransport, "ship_inputs", ship_spy)
        patch.setattr(PlanRunner, "run", run_spy)
        result = executor(db, **options).execute(plan, governance)
    return result, oracle(db, plan, placed, merged, **options)


def oracle(db, plan, placed, merged, degree=2, min_partition_rows=1_000, **_):
    """The oracle's answer and per-address cardinalities for one parallel
    run. At the split and below it, each is the sum over the tasks of the
    oracle run of the task's worker plan over the partitions it was given:
    a broadcast input counts once per task, a partition-local sampler draws
    per partition. Above the split, the oracle runs the plan with the
    merged split read as a table, its decimal columns declared as the
    scans they come from declare them. A serial fallback's are the whole
    plan's."""
    if not placed:
        return reference_run(db, plan)
    (partitions,), (overrides,) = placed, merged
    ((split, rows),) = overrides.items()
    rows = rows.built()  # merged matches stay lazy
    analysis = analyze_plan(plan, db, min_partition_rows)
    assert split == analysis.split_address
    counts = collections.Counter()
    for task in range(len(next(iter(partitions.values())))):
        worker_db = Database()
        for parts in partitions.values():
            worker_db.register(parts[task])
        worker = build_worker_plan(
            analysis.split, analysis.split_scan_ordinals, task, degree,
            analysis.aligned_sampler_addresses,
        )
        _, cards = reference_run(worker_db, placed_scans(worker, worker_db))
        counts.update({split + address: count for address, count in cards.items()})
    upper_db, decimals = Database(), {}
    for name in rows.data_column_names():  # the decimal columns the split carries
        traced = trace_to_scan(analysis.split, (), (name,))
        scale = traced and db.decimal_scale(traced[1].table, *traced[2])
        if scale is not None:
            decimals[name] = scale
    upper_db.register(rows, decimals)
    answer, above = reference_run(
        upper_db, replaced(plan, split, Scan(rows.name, rows.data_column_names()))
    )
    assert above.pop(split) == counts[split]
    return answer, {**counts, **above}


def placed_scans(node, database):
    """``node`` with each scan reading only the columns placed for it."""
    if isinstance(node, Scan):
        placed = database.table(node.table).column_names
        return Scan(node.table, [c for c in node.output_columns() if c in placed])
    return node.with_children([placed_scans(child, database) for child in node.children])


def replaced(node, address, by):
    """``node`` with the subtree at ``address`` replaced ``by`` another."""
    if not address:
        return by
    children = list(node.children)
    children[address[0]] = replaced(children[address[0]], address[1:], by)
    return node.with_children(children)


def assert_like_built_and_serial(db, plan, run, built, serial=True):
    """The run's answer, cardinalities and cost are the oracle's, and its
    answer is the serial run's (``serial``: unless a sampler draws per
    partition)."""
    answer, cards = built
    assert table_digest(run.table) == table_digest(answer)
    assert run.cardinalities == cards
    assert run.cost == cost_plan(plan, lambda node, address: cards[address], ClusterConfig())
    if serial:
        assert table_digest(run.table) == table_digest(Executor(db).execute(plan).table)


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
        assert merges == ["merge_matches"]
        assert matched.parallel.tasks == degree
        per_partition = any(
            isinstance(n, SamplerNode) and isinstance(n.spec, DistinctSpec) for n in plan.walk()
        )
        assert_like_built_and_serial(tpcds, plan, matched, built, serial=not per_partition)

    def test_budget_below_the_built_worker_peak_raises_the_same(self, tpcds, monkeypatch):
        """q14 exact, governed: one byte under the largest live-byte count a
        worker reached. A worker is charged its join's output as the table
        it would have built, so a built worker reaches the same count, and
        the run trips there."""

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
        charged, real = [], JoinedRows.parts
        monkeypatch.setattr(
            JoinedRows, "parts",
            lambda self: charged.append((self.estimated_bytes(), self.built().estimated_bytes()))
            or real(self),
        )
        free = Ledger()
        executor(tpcds).execute(plan, free)
        assert len(charged) == 2 and all(lazy == built for lazy, built in charged)
        assert max(free.worker_bytes) == max(built for _, built in charged)
        budget = max(free.worker_bytes) - 1
        governance = Ledger(memory_budget_bytes=budget)
        with pytest.raises(BudgetExceeded) as raised:
            executor(tpcds).execute(plan, governance)
        assert str(raised.value) == (
            f"live intermediate state {budget + 1} bytes exceeds the memory budget "
            f"{budget} bytes"
        )
        assert governance.peak_live_bytes == budget + 1


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
        assert merges == ["merge_matches"]
        assert_like_built_and_serial(db, plan, matched, built)

    def test_a_projected_probe_side_ships_matches(self, merges, monkeypatch):
        # A project carries the lineage the merge orders by: probe rows
        # below one keep their order, and the answer its serial bits.
        rng = np.random.default_rng(2)
        db = two_tables(rng.integers(0, 200, 3000), rng.integers(0, 200, 600))
        plan = query(db, probe=scan(db, "l").derive(x2=col("x") * 2.0))
        matched, built = both_ways(db, plan, monkeypatch)
        assert merges == ["merge_matches"]
        assert_like_built_and_serial(db, plan, matched, built)

    @pytest.mark.parametrize("shape", ["build-partitioned", "build-group", "left-outer"])
    def test_other_shapes_ship_built_rows(self, merges, monkeypatch, shape):
        """A split whose probe side is broadcast, and an outer join, ship
        built rows. The aggregate above does not decide: one grouped on a
        build column reads the merged matches per output row."""
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
        assert ("merge_matches" in merges) == (shape == "build-group")
        assert_like_built_and_serial(db, plan, matched, built)
        if shape == "build-partitioned":
            assert matched.parallel.strategy.startswith("round-robin[r]")
        if shape == "left-outer":
            assert matched.parallel.strategy == "serial-fallback"


    @pytest.mark.parametrize("pool", ["thread", "process"])
    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("shape", ["build-group", "no-aggregate"])
    def test_fan_out_splits_read_by_rows_ship_matches(
        self, merges, monkeypatch, shape, degree, pool
    ):
        """A fan-out split whose reader reads it per output row ships its
        matches too: under an aggregate grouped on a build column, and as
        the plan's root (an order-by or a limit would keep the plan
        serial), which the caller gets built. Each gives the serial answer
        on every pool and degree."""
        rng = np.random.default_rng(2)
        db = two_tables(rng.integers(0, 200, 3000), rng.integers(0, 200, 600))
        if shape == "build-group":
            plan = query(db, group_by=("b",))
        else:
            plan = scan(db, "l").join(scan(db, "r"), on=[("lk", "rk")]).build("rows").plan
        run, built = both_ways(db, plan, monkeypatch, degree=degree, pool=pool)
        assert merges[0] == "merge_matches"
        assert run.parallel.tasks == degree
        assert_like_built_and_serial(db, plan, run, built)


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
        assert merges == ["merge_rows"]
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
        assert merges == ["merge_matches"]
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
            assert merges == ["merge_matches"]
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
