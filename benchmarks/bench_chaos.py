"""Chaos suite: the TPC-DS workload under seeded fault injection.

Acceptance bars (the system's fault-tolerance claims, end to end):

* **Recovery** — with an injected crash and (where more than one task
  runs) an injected straggler per query, every one of the 24 TPC-DS
  queries completes, and
  each recovered answer is *bit-identical* to a fault-free run of the same
  configuration (counter-based sampling makes retried attempts
  deterministic; the straggler's speculative duplicate returns the same
  rows its original would have).
* **Graceful degradation** — a uniform-sampled aggregate that permanently
  loses a partition returns a :class:`PartialResult` whose re-weighted
  Horvitz-Thompson estimates still cover the true (full-data) answer with
  their widened 95% confidence intervals.

Scale is controlled by ``REPRO_CHAOS_SCALE`` (default 0.15 — the bars test
recovery mechanics, not statistical quality at full scale).
"""

import os

import numpy as np

from repro.algebra.aggregates import sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.core.rewrite import finalize_plan
from repro.engine.executor import Executor, PartialResult
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import FaultPlan, ParallelOptions
from repro.parallel.tasks import RetryPolicy
from repro.samplers.uniform import UniformSpec
from repro.workloads.tpcds import generate_tpcds, queries

SCALE = float(os.environ.get("REPRO_CHAOS_SCALE", "0.15"))
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
DEGREE = 4
HANG_SECONDS = 0.25

OPTIONS = dict(
    pool="thread",
    # Oversubscribe so 1-core CI machines still run the concurrent
    # scheduler (retries in flight, speculative duplicates) instead of the
    # single-worker inline short-circuit.
    max_workers=DEGREE + 1,
    retry=RetryPolicy(
        backoff_base=0.01,
        speculation_min_seconds=HANG_SECONDS / 2,
        poll_interval=0.005,
    ),
    task_seed=SEED,
)


def bit_identical(a, b) -> bool:
    return (
        a.column_names == b.column_names
        and a.num_rows == b.num_rows
        and all(np.array_equal(a.column(c), b.column(c)) for c in a.column_names)
    )


def test_chaos_suite_every_query_recovers_bit_identical():
    db = generate_tpcds(scale=SCALE, seed=1)
    planner = QuickrPlanner(db)
    options = ParallelOptions(**OPTIONS)
    executor = Executor(db, parallelism=DEGREE, parallel_options=options)

    recovered = 0
    for index, query in enumerate(queries(db)):
        planned = planner.plan(query).plan

        options.fault_plan = None
        reference = executor.execute(planned)

        # Faults are keyed by task index, and a pruned run has fewer tasks
        # than DEGREE: draw over the tasks the reference run launched, so
        # every fault lands on one that exists. A lone task cannot take
        # both faults on its first attempt; it gets the crash.
        tasks = reference.parallel.tasks
        if tasks:
            plan = FaultPlan.random(
                seed=SEED * 100 + index,
                num_partitions=tasks,
                crashes=1,
                hangs=min(1, tasks - 1),
                hang_seconds=HANG_SECONDS,
            )
            assert plan.summary().get("crash") == 1, query.name
            options.fault_plan = plan
        result = executor.execute(planned)

        assert result.parallel is not None, query.name
        if result.parallel.strategy == "serial-fallback":
            # Plans the analyzer declines to parallelize see no faults; the
            # suite's bar applies to the parallelized queries.
            assert bit_identical(reference.table, result.table), query.name
            continue
        assert not result.degraded, query.name
        assert result.parallel.failed_partitions == (), query.name
        assert result.parallel.task_retries >= 1, query.name  # the crash was retried
        assert bit_identical(reference.table, result.table), query.name
        recovered += 1

    assert recovered >= 20  # nearly all of the 24 queries run parallel
    stats = executor.timings()["fault_tolerance"]
    assert stats["retries"] >= recovered
    assert stats["speculative_wins"] >= 1  # the injected stragglers lost races
    assert stats["failed_tasks"] == 0


def test_partition_loss_degrades_with_covering_cis():
    db = generate_tpcds(scale=SCALE, seed=1)

    def sales_by_store(spec=None):
        builder = scan(db, "store_sales")
        if spec is not None:
            builder = from_node(SamplerNode(builder.node, spec))
        return (
            builder.groupby("ss_store_sk")
            .agg(sum_(col("ss_ext_sales_price"), "total"))
            .orderby("ss_store_sk")
            .build("sales_by_store")
        )

    truth = Executor(db).execute(sales_by_store()).table

    sampled_plan = finalize_plan(sales_by_store(UniformSpec(0.2, seed=11)).plan)
    executor = Executor(
        db,
        parallelism=DEGREE,
        parallel_options=ParallelOptions(
            fault_plan=FaultPlan.lose_partition(1),
            **{**OPTIONS, "retry": RetryPolicy(max_attempts=2, backoff_base=0.01)},
        ),
    )
    result = executor.execute(sampled_plan)

    assert isinstance(result, PartialResult)
    assert result.lost_partitions == (1,)
    assert result.coverage == (DEGREE - 1) / DEGREE
    assert result.reweight_factor == DEGREE / (DEGREE - 1)

    answer = result.table
    assert answer.num_rows == truth.num_rows  # no missed groups
    estimate = answer.column("total")
    ci = answer.column("total__ci")
    expected = truth.column("total")
    # The re-weighted HT estimator is unbiased and its variance algebra
    # consumes the inflated weights, so the widened 95% CIs still cover the
    # full-data answer (allow the nominal miss rate some slack).
    covered = np.abs(estimate - expected) <= ci
    assert covered.mean() >= 0.8, f"CI coverage {covered.mean():.0%}"
    # And the global total is well inside the combined interval.
    assert abs(estimate.sum() - expected.sum()) <= np.sqrt((ci**2).sum())
