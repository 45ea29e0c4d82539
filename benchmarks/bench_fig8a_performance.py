"""Figure 8a: Baseline/Quickr performance ratios over TPC-DS.

Paper: median machine-hours gain > 2x, runtime ~1.6x, ~20% of queries gain
more than 3x; a handful exceed 6x. Our laptop-scale shape: the median gain
grows with REPRO_BENCH_SCALE (supports grow, more samplers clear the
accuracy bar); what must hold at any scale is who wins and where the tail
is — fact-fact universe plans gain several-fold, star queries gain
modestly, unapproximable queries sit at 1x.
"""

from time import perf_counter

import numpy as np

from repro.engine.executor import Executor
from repro.experiments.figures import figure8a_performance
from repro.experiments.report import format_table
from repro.obs import trace as obs_trace
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions, available_parallelism


def test_figure8a_performance(benchmark, outcomes):
    data = benchmark.pedantic(lambda: figure8a_performance(outcomes), rounds=1, iterations=1)

    print("\n=== Figure 8a: Baseline/Quickr gain medians ===")
    print(
        format_table(
            [
                {
                    "metric": name,
                    "median_gain": f"{value:.2f}x",
                }
                for name, value in data["median"].items()
            ]
        )
    )
    print(f"fraction of queries with >2x machine-hours gain: {data['fraction_mh_gain_over_2x']:.0%}")
    print(f"fraction with >3x gain (paper ~20%): {data['fraction_mh_gain_over_3x']:.0%}")
    print(f"fraction regressed (paper: small): {data['fraction_regressed']:.0%}")

    values, fractions = data["cdf"]["machine_hours"]
    print("\nmachine-hours gain CDF:")
    for v, f in zip(values, fractions):
        print(f"  gain {v:6.2f}x  <= {f:.0%} of queries")

    # Shape assertions.
    assert data["median"]["machine_hours"] >= 1.0
    assert data["fraction_mh_gain_over_3x"] >= 0.08   # a real >3x tail exists
    assert values.max() >= 3.0                         # best queries gain severalfold
    assert data["fraction_regressed"] <= 0.25


DEGREE = 4


def test_figure8a_parallel_speedup(benchmark, tpcds_db, tpcds_queries):
    """Partition-parallel execution of the Figure 8a workload.

    Correctness bar: every parallelized uniform/universe plan must be
    bit-identical to its serial run (row merge restores exact serial order;
    counter-based samplers make identical per-row decisions). Performance
    bar: the cluster model must predict >= 2x at D=4 for the median
    parallelized query; measured wall-clock speedup is additionally
    asserted >= 2x when the host actually has >= 4 usable cores.
    """
    planner = QuickrPlanner(tpcds_db)
    plans = [(q.name, planner.plan(q)) for q in tpcds_queries]

    serial_exec = Executor(tpcds_db)
    parallel_exec = Executor(
        tpcds_db,
        parallelism=DEGREE,
        parallel_options=ParallelOptions(pool="thread", merge="rows"),
    )

    t0 = perf_counter()
    serial_results = {name: serial_exec.execute(planned.plan) for name, planned in plans}
    serial_seconds = perf_counter() - t0

    t0 = perf_counter()
    parallel_results = benchmark.pedantic(
        lambda: {name: parallel_exec.execute(planned.plan) for name, planned in plans},
        rounds=1,
        iterations=1,
    )
    parallel_seconds = perf_counter() - t0

    rows = []
    modeled = []
    mismatched = []
    for name, planned in plans:
        serial, parallel = serial_results[name], parallel_results[name]
        metrics = parallel.parallel
        parallelized = metrics.strategy != "serial-fallback"
        deterministic = parallelized and "distinct" not in planned.sampler_kinds()
        if deterministic:
            same = serial.table.num_rows == parallel.table.num_rows and all(
                np.array_equal(
                    serial.table.column(c),
                    parallel.table.column(c),
                    equal_nan=serial.table.column(c).dtype.kind == "f",
                )
                for c in serial.table.column_names
            )
            if not same:
                mismatched.append(name)
        if parallelized:
            modeled.append(metrics.modeled_speedup)
        rows.append(
            {
                "query": name,
                "strategy": metrics.strategy,
                "modeled": f"{metrics.modeled_speedup:.2f}x",
                "identical": "yes" if deterministic else ("n/a" if not parallelized else "stat"),
            }
        )

    print(f"\n=== Figure 8a workload at parallelism={DEGREE} ===")
    print(format_table(rows))
    cores = available_parallelism()
    measured = serial_seconds / max(parallel_seconds, 1e-9)
    print(f"serial {serial_seconds:.2f}s, parallel {parallel_seconds:.2f}s "
          f"-> measured speedup {measured:.2f}x on {cores} core(s); "
          f"median modeled speedup {np.median(modeled):.2f}x")

    assert not mismatched, f"parallel answers diverged from serial: {mismatched}"
    assert len(modeled) >= len(plans) // 2      # most queries actually parallelize
    assert np.median(modeled) >= 2.0            # cluster model: >= 2x at D=4
    if cores >= DEGREE:
        assert measured >= 2.0, f"wall-clock speedup {measured:.2f}x below 2x on {cores} cores"


#: Instrumentation budget: median per-query wall-clock with tracing on may
#: exceed tracing off by at most this factor.
MAX_TRACING_OVERHEAD = 1.05
TRACING_ROUNDS = 3


def test_tracing_overhead(tpcds_db, tpcds_queries):
    """Span instrumentation must stay off the hot path.

    Runs every Figure 8a query with the tracer disabled and enabled
    (fresh tracer per run, so span buffers never amortize), taking the
    min of a few rounds per mode to suppress scheduler noise, and asserts
    the median per-query on/off ratio stays under 5%.

    The "on" phase additionally runs a concurrent OpenMetrics scraper
    against the executor's live registry — the production configuration
    is tracer + scrape endpoint, and the snapshot locks must not show up
    in query wall-clock either.
    """
    import threading

    from repro.obs.export import render_openmetrics, validate_openmetrics

    planner = QuickrPlanner(tpcds_db)
    plans = [planner.plan(q).plan for q in tpcds_queries]
    executor = Executor(tpcds_db)
    for plan in plans:  # warm the compile cache: measure execution, not lowering
        executor.execute(plan)

    def timed_run(plan) -> float:
        t0 = perf_counter()
        executor.execute(plan)
        return perf_counter() - t0

    stop_scraping = threading.Event()
    scrapes = [0]
    scrape_problems = []

    def scraper():
        # Failures are collected, not asserted: an assert here would only
        # kill this thread, invisibly to pytest.
        while not stop_scraping.is_set():
            problems = validate_openmetrics(render_openmetrics(executor.registry))
            if problems:
                scrape_problems.extend(problems[:3])
                return
            scrapes[0] += 1
            # Production scrapers poll on a seconds cadence; 0.25s still
            # lands a scrape inside every measured phase without the
            # render itself dominating a single-core ratio.
            stop_scraping.wait(0.25)

    ratios = []
    for plan in plans:
        off = min(timed_run(plan) for _ in range(TRACING_ROUNDS))
        on_times = []
        stop_scraping.clear()
        thread = threading.Thread(target=scraper, name="bench-scraper", daemon=True)
        thread.start()
        try:
            for _ in range(TRACING_ROUNDS):
                tracer = obs_trace.Tracer()
                obs_trace.set_tracer(tracer)
                try:
                    on_times.append(timed_run(plan))
                finally:
                    obs_trace.set_tracer(None)
        finally:
            stop_scraping.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive(), "scraper thread hung"
        assert not scrape_problems, scrape_problems
        ratios.append(min(on_times) / max(off, 1e-9))

    median = float(np.median(ratios))
    print(f"\ntracing overhead: median {median:.3f}x, worst {max(ratios):.3f}x "
          f"over {len(plans)} queries ({TRACING_ROUNDS} rounds each, "
          f"{scrapes[0]} concurrent scrapes)")
    assert scrapes[0] > 0, "exporter never scraped during the traced phase"
    assert median <= MAX_TRACING_OVERHEAD, (
        f"median tracing overhead {median:.3f}x exceeds {MAX_TRACING_OVERHEAD}x"
    )
