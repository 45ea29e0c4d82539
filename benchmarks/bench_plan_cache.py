"""Repeated-query throughput: cold vs warm plan/compilation caches.

The paper's production trace is dominated by repeated queries (over half the
daily workload recurs). With fingerprint-keyed caches in the planner
(skipping normalization, join reordering and the ASALQA exploration) and the
executor (skipping lowering to a physical plan), a repeated query pays only
execution. This benchmark runs the full 24-query TPC-DS suite both ways:

* cold — fresh planner and executor every round: every query pays planning,
  compilation and execution;
* warm — persistent planner and executor: planning and compilation are
  cache hits, so each round pays execution only.

The acceptance bar is warm >= 1.3x cold throughput. It uses its own small
scale (``REPRO_PLAN_CACHE_SCALE``, default 0.01) because the bar measures
per-query *overhead*, which is scale-independent, against execution time,
which is not: at large scales execution dominates and the ratio tends to 1.
"""

import os
import time

from repro.engine.executor import Executor
from repro.optimizer.planner import QuickrPlanner
from repro.workloads.tpcds import generate_tpcds, queries

SCALE = float(os.environ.get("REPRO_PLAN_CACHE_SCALE", "0.01"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
ROUNDS = int(os.environ.get("REPRO_PLAN_CACHE_ROUNDS", "3"))
MIN_SPEEDUP = 1.3


def run_suite(planner, executor, workload):
    """Plan and execute every query; returns the planning results."""
    planned = [planner.plan(query) for query in workload]
    for result in planned:
        executor.execute(result.plan)
    return planned


def test_warm_cache_repeated_suite_speedup():
    db = generate_tpcds(scale=SCALE, seed=SEED)
    workload = queries(db)

    # Cold: nothing survives between rounds — every round replans,
    # recompiles and re-executes all 24 queries.
    cold_times = []
    for _ in range(ROUNDS):
        planner = QuickrPlanner(db, plan_cache_size=0)
        executor = Executor(db, plan_cache_size=0)
        start = time.perf_counter()
        run_suite(planner, executor, workload)
        cold_times.append(time.perf_counter() - start)

    # Warm: one planner + one executor, caches primed by a first pass.
    planner = QuickrPlanner(db)
    executor = Executor(db)
    memo = run_suite(planner, executor, workload)
    memo_entries = len(planner._plan_cache)
    # Harvest boundary: the priming pass's misses and timings must not
    # bleed into the warm-phase numbers (cache *entries* survive the reset,
    # only the statistics zero out).
    priming = executor.reset_metrics()
    assert priming["timings"]["compile_seconds"] > 0.0
    assert executor.timings()["compile_seconds"] == 0.0

    warm_times, warm_plans = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        warm_plans.append(run_suite(planner, executor, workload))
        warm_times.append(time.perf_counter() - start)

    # Every warm query hit both caches. The planner's memo handed back the
    # very objects the priming pass stored and grew by nothing; the
    # executor's registry counters cover exactly the measured rounds, so
    # zero misses proves the priming pass didn't leak in.
    assert all(a is b for plans in warm_plans for a, b in zip(plans, memo))
    assert len(planner._plan_cache) == memo_entries
    cache = executor.timings()["plan_cache"]
    assert cache["hits"] == ROUNDS * len(workload)
    assert cache["misses"] == 0

    cold, warm = min(cold_times), min(warm_times)
    speedup = cold / warm
    print(
        f"\nplan-cache bench: scale={SCALE} rounds={ROUNDS} "
        f"cold={cold * 1e3:.1f}ms warm={warm * 1e3:.1f}ms speedup={speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache suite only {speedup:.2f}x faster than cold "
        f"(cold {cold * 1e3:.1f}ms, warm {warm * 1e3:.1f}ms); need {MIN_SPEEDUP}x"
    )
