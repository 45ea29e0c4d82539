"""Command-line interface.

Usage::

    python -m repro plan q12               # show ASALQA's plan for a query
    python -m repro explain-analyze q07    # annotated operator tree (est vs actual)
    python -m repro evaluate --scale 0.3   # run the TPC-DS evaluation
    python -m repro trace                  # regenerate the Figure 2 analysis
    python -m repro speedup --parallelism 4  # partition-parallel speedup report
    python -m repro chaos --seed 7         # fault-injected run of the workload
    python -m repro validate-trace out.json  # schema-check an exported trace
    python -m repro serve --port 8642      # run the concurrent query service
    python -m repro client q12 --tenant ads  # query a running service
    python -m repro loadgen --sessions 50  # load-test a running service
    python -m repro slo --port 8642        # accuracy calibration + SLO burn report
    python -m repro postmortem postmortems/  # render a flight-recorder bundle
    python -m repro stats-catalog build    # materialize the partition-stats catalog

Every data-touching subcommand accepts ``--log-level`` (attach the
``repro`` logger hierarchy to stderr), ``--trace out.json`` (record a
Chrome/Perfetto trace of the whole run) and ``--metrics out.json`` (dump
the executor's metrics registry). The CLI operates on the built-in
TPC-DS-style workload; it exists so a reader can poke at the system
without writing a script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


def _wants_stats(args) -> bool:
    """Whether the generated database should carry a partition-stats catalog."""
    return not getattr(args, "no_stats", False)


def _write_metrics(args, executor) -> None:
    """Dump the executor's metrics registry (plus legacy timings) as JSON."""
    path = getattr(args, "metrics", None)
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(executor.snapshot(), fh, indent=2, sort_keys=True, default=str)
    print(f"wrote metrics registry to {path}")


def _cmd_plan(args) -> int:
    from repro.algebra.addressing import format_address, plan_fingerprint, walk_with_addresses
    from repro.engine.executor import Executor
    from repro.engine.physical import required_columns
    from repro.optimizer.planner import QuickrPlanner
    from repro.workloads.tpcds import QUERY_BUILDERS, generate_tpcds, query_by_name

    if args.query not in QUERY_BUILDERS:
        print(f"unknown query {args.query!r}; available: {', '.join(QUERY_BUILDERS)}")
        return 2
    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    planner = QuickrPlanner(db)
    result = planner.plan(query_by_name(db, args.query))

    print(f"query {args.query}: approximable={result.approximable}")
    print(f"plan fingerprint: {plan_fingerprint(result.plan)}")
    for decision in result.decisions:
        print(f"  {decision.spec!r}  <- {decision.reason} (support {decision.support:.1f})")

    print("\nplan (address  fingerprint  cols kept/total  operator):")
    addressed = list(walk_with_addresses(result.plan))
    required = required_columns(result.plan)
    width = max(len(format_address(a)) for a, _ in addressed)
    for address, node in addressed:
        label = format_address(address).ljust(width)
        cols = f"{len(required[address])}/{len(node.output_columns())}".rjust(5)
        print(f"  {label}  {plan_fingerprint(node)[:12]}  {cols}  "
              f"{'  ' * len(address)}{node!r}")

    if args.execute:
        executor = Executor(db, parallelism=args.parallelism)
        exact = executor.execute(result.baseline_plan)
        approx = executor.execute(result.plan)
        if approx.parallel is not None:
            print(f"\nparallel execution: {approx.parallel.summary()}")
        gain = exact.cost.machine_hours / max(approx.cost.machine_hours, 1e-9)
        print(f"\nmachine-hours gain: {gain:.2f}x  "
              f"(answer rows {approx.table.num_rows} vs exact {exact.table.num_rows})")
        _write_metrics(args, executor)
    return 0


def _cmd_explain(args) -> int:
    from repro.engine.executor import Executor
    from repro.obs.explain import explain_analyze
    from repro.optimizer.planner import QuickrPlanner
    from repro.workloads.tpcds import QUERY_BUILDERS, generate_tpcds, queries, query_by_name

    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    planner = QuickrPlanner(db)
    executor = Executor(db, parallelism=args.parallelism)
    if args.query:
        if args.query not in QUERY_BUILDERS:
            print(f"unknown query {args.query!r}; available: {', '.join(QUERY_BUILDERS)}")
            return 2
        targets = [query_by_name(db, args.query)]
    else:
        targets = queries(db)
    for index, query in enumerate(targets):
        if index:
            print("\n" + "=" * 78 + "\n")
        print(explain_analyze(planner, executor, query))
    _write_metrics(args, executor)
    return 0


def _cmd_validate_trace(args) -> int:
    from repro.obs.trace import iter_trace_file, validate_chrome_trace

    events = list(iter_trace_file(args.path))
    problems = validate_chrome_trace(events)
    if problems:
        print(f"{args.path}: {len(problems)} problem(s) in {len(events)} events")
        for problem in problems[:25]:
            print(f"  - {problem}")
        if len(problems) > 25:
            print(f"  ... and {len(problems) - 25} more")
        return 1
    print(f"{args.path}: {len(events)} events, schema OK, no unclosed spans")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.experiments.figures import figure8a_performance, figure8b_error, table7_sampler_frequency
    from repro.experiments.report import format_table
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads.tpcds import generate_tpcds, queries

    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    runner = ExperimentRunner(db, parallelism=args.parallelism)
    outcomes = runner.run_suite(queries(db))

    print(format_table([o.summary() for o in outcomes], title="per-query outcomes"))
    perf = figure8a_performance(outcomes)
    err = figure8b_error(outcomes)
    freq = table7_sampler_frequency(outcomes)
    print(f"\nmedian machine-hours gain: {perf['median']['machine_hours']:.2f}x "
          f"(>2x for {perf['fraction_mh_gain_over_2x']:.0%} of queries)")
    print(f"aggregates within 10%: {err['fraction_within_10pct']:.0%}; "
          f"no missed groups (full answer): {err['fraction_no_missed_groups_full']:.0%}")
    print(f"sampler mix: {', '.join(f'{k} {v:.0%}' for k, v in freq['distribution_across_samplers'].items())}")

    timings = runner.executor.timings()
    cache = timings["plan_cache"]
    print(f"\nplan compilation: {timings['compile_seconds']:.3f}s compile vs "
          f"{timings['execute_seconds']:.3f}s execute "
          f"(plan cache: {cache['hits']} hits / {cache['misses']} misses / "
          f"{cache['evictions']} evictions)")
    fault = timings.get("fault_tolerance")
    if fault:
        print("fault tolerance: "
              f"{fault['tasks']} tasks, {fault['retries']} retries, "
              f"{fault['speculative_wins']}/{fault['speculative_launches']} speculative wins, "
              f"{fault['failed_tasks']} permanently failed, "
              f"{fault['degraded_queries']} degraded quer{'y' if fault['degraded_queries'] == 1 else 'ies'}, "
              f"{fault['serial_reexecutions']} serial re-execution(s)")
        latency = fault.get("task_latency_s")
        if latency:
            print(f"task latency: p50 {latency['p50']:.4f}s, "
                  f"p95 {latency['p95']:.4f}s, max {latency['max']:.4f}s")
    _write_metrics(args, runner.executor)
    return 0


def _cmd_chaos(args) -> int:
    import numpy as np

    from repro.engine.executor import Executor
    from repro.experiments.report import format_table
    from repro.optimizer.planner import QuickrPlanner
    from repro.parallel import FaultPlan, ParallelOptions
    from repro.parallel.tasks import RetryPolicy
    from repro.workloads.tpcds import generate_tpcds, queries

    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    planner = QuickrPlanner(db)
    options = ParallelOptions(
        pool=args.pool,
        # Oversubscribe deliberately: on few-core machines the pool would
        # otherwise degenerate to one worker (inline path), and a chaos run
        # exists to exercise the concurrent scheduler — retries in flight,
        # stragglers overlapped by speculative duplicates.
        max_workers=args.parallelism + 1,
        retry=RetryPolicy(backoff_base=0.02, speculation_min_seconds=args.hang_seconds / 2),
        task_seed=args.seed,
    )
    executor = Executor(db, parallelism=args.parallelism, parallel_options=options)

    rows = []
    mismatches = 0
    for index, query in enumerate(queries(db)):
        planned = planner.plan(query).plan
        # The invariant under test: injected faults never change the
        # answer. The reference is a fault-free run of the *same* parallel
        # configuration (distinct-sampled plans are legitimately not
        # bit-identical to a serial run — the sampler is stream-order
        # stateful — but every configuration is deterministic with itself).
        options.fault_plan = None
        reference = executor.execute(planned)
        plan = FaultPlan.random(
            seed=args.seed * 1_000 + index,
            num_partitions=args.parallelism,
            crashes=args.crashes,
            hangs=args.hangs,
            corruptions=args.corruptions,
            hang_seconds=args.hang_seconds,
        )
        if args.lose_partition and index % 3 == 0:
            plan = plan.merged_with(FaultPlan.lose_partition(args.parallelism - 1))
        options.fault_plan = plan
        result = executor.execute(planned)
        metrics = result.parallel

        if result.degraded:
            verdict = f"degraded ({result.coverage:.0%} coverage)"
        elif metrics.strategy == "serial-fallback":
            verdict = "serial re-execution"
        else:
            same = (
                reference.table.column_names == result.table.column_names
                and reference.table.num_rows == result.table.num_rows
                and all(
                    np.array_equal(reference.table.column(c), result.table.column(c))
                    for c in reference.table.column_names
                )
            )
            verdict = "identical" if same else "MISMATCH"
            mismatches += 0 if same else 1
        rows.append(
            {
                "query": query.name,
                "faults": repr(plan)[len("FaultPlan("):-1] or "-",
                "retries": metrics.task_retries,
                "spec": f"{metrics.speculative_wins}/{metrics.speculative_launches}",
                "outcome": verdict,
                "wall_s": f"{metrics.wall_clock_seconds:.3f}",
            }
        )

    print(format_table(rows, title=f"chaos run (D={args.parallelism}, seed={args.seed})"))
    print(f"\ncumulative: {executor.timings()['fault_tolerance']}")
    _write_metrics(args, executor)
    if mismatches:
        print(f"\n{mismatches} quer{'y' if mismatches == 1 else 'ies'} diverged "
              "from the fault-free reference")
        return 1
    print("\nevery recovered query matched its fault-free run bit-for-bit; "
          "degraded queries returned re-weighted partial answers")
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.service import (
        AdmissionConfig,
        AuditorConfig,
        GovernorConfig,
        QueryServer,
        QueryService,
        ServiceConfig,
    )
    from repro.workloads.tpcds import generate_tpcds

    weights = {}
    for item in args.tenant_weight or []:
        name, _, value = item.partition("=")
        if not value:
            print(f"bad --tenant-weight {item!r}; expected NAME=WEIGHT")
            return 2
        weights[name] = float(value)

    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    config = ServiceConfig(
        num_workers=args.workers,
        admission=AdmissionConfig(
            max_queue_depth=args.max_queue_depth,
            tenant_quota=args.tenant_quota,
            tenant_weights=weights,
        ),
        governor=GovernorConfig(
            enabled=not args.no_governor,
            default_memory_budget_bytes=(
                int(args.memory_budget_mb * 1024 * 1024)
                if args.memory_budget_mb is not None else None
            ),
        ),
        drain_seconds=args.drain_seconds,
        metrics_port=args.metrics_port,
        metrics_host=args.host,
        telemetry_path=args.telemetry,
        telemetry_interval_seconds=args.telemetry_interval,
        postmortem_dir=args.postmortem_dir,
        audit=AuditorConfig(sample_fraction=args.audit_fraction),
        latency_slo_ms=args.latency_slo_ms,
    )
    service = QueryService(db, config)
    server = QueryServer(service, host=args.host, port=args.port)
    server.start()
    print(f"serving TPC-DS scale {args.scale} on {server.address[0]}:{server.address[1]} "
          f"({args.workers} workers, queue depth {args.max_queue_depth}, "
          f"tenant quota {args.tenant_quota}, "
          f"governor {'on' if not args.no_governor else 'off'})", flush=True)
    if service.metrics_address is not None:
        mhost, mport = service.metrics_address
        print(f"metrics: http://{mhost}:{mport}/metrics "
              f"(OpenMetrics; /healthz also served)", flush=True)
    if args.telemetry:
        print(f"telemetry: appending JSONL snapshots to {args.telemetry} "
              f"every {args.telemetry_interval:.1f}s", flush=True)
    if args.postmortem_dir:
        print(f"postmortems: dumping bundles to {args.postmortem_dir}", flush=True)
    if args.audit_fraction > 0:
        print(f"auditor: exact-replaying ~{args.audit_fraction:.0%} of served "
              f"approximate answers in the background", flush=True)

    def _stop(signum, frame):
        print(f"\nsignal {signum}: draining (grace {args.drain_seconds:.1f}s) "
              f"then shutting down", flush=True)
        # stop() drains: new queries get rejected.draining, in-flight ones
        # keep their grace, stragglers are cancelled at the next checkpoint.
        server.stop()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        while not server.wait(timeout=0.5):
            pass
    finally:
        server.stop()
    summary = service.stats()
    print(f"served {summary['queries']['served']:.0f} quer"
          f"{'y' if summary['queries']['served'] == 1 else 'ies'}, "
          f"rejected {summary['queries']['rejected']:.0f}; "
          f"peak queue depth {summary['admission']['peak_queue_depth']}")
    _write_metrics(args, service.executor)
    return 0


def _cmd_client(args) -> int:
    from repro.errors import AdmissionRejected, GovernanceError, ServiceError
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}")
        return 1
    with client:
        client.hello(tenant=args.tenant, mode=args.mode)
        if args.shutdown:
            client.shutdown()
            print("server acknowledged shutdown")
            return 0
        if args.stats:
            import json

            print(json.dumps(client.stats(), indent=2, sort_keys=True, default=str))
            return 0
        if not args.query:
            print("nothing to do: pass a query name, --stats or --shutdown")
            return 2
        try:
            reply = client.query(args.query, deadline_ms=args.deadline_ms)
        except AdmissionRejected as exc:
            print(f"rejected ({exc.reason}): {exc}")
            return 3
        except GovernanceError as exc:
            print(f"cancelled ({exc.reason_code}): {exc}")
            return 4
        except ServiceError as exc:
            print(f"error: {exc}")
            return 1
        stats = reply.stats
        print(f"{reply.query} [{reply.mode}] -> {reply.num_rows} rows "
              f"(digest {reply.digest[:12]}…) in {stats.get('execute_ms', 0):.1f} ms "
              f"(+{stats.get('queue_wait_ms', 0):.1f} ms queued, "
              f"cache {'hit' if stats.get('plan_cache_hit') else 'miss'})")
        if reply.table is not None and args.rows:
            for row in list(reply.table.iter_rows())[: args.rows]:
                print("  ", row)
    return 0


def _cmd_loadgen(args) -> int:
    from repro.service import LoadConfig, run_load

    config = LoadConfig(
        sessions=args.sessions,
        queries_per_session=args.queries,
        tenants=tuple(args.tenants.split(",")),
        query_names=args.query_names.split(",") if args.query_names else None,
        mode=args.mode,
        deadline_ms=args.deadline_ms,
        timeout_seconds=args.timeout,
        seed=args.seed,
    )
    report = run_load(args.host, args.port, config)
    summary = report.summary()
    latency = summary["latency_seconds"]

    def _ms(value):
        return f"{value * 1000:.1f} ms" if value is not None else "-"

    print(f"{summary['sessions']} sessions x {args.queries} queries: "
          f"{summary['served']} served ({summary['degraded']} degraded), "
          f"{sum(report.rejected.values())} rejected {summary['rejected'] or ''}, "
          f"{sum(report.cancelled.values())} cancelled {summary['cancelled'] or ''}, "
          f"{summary['errors']} errors, "
          f"{summary['protocol_errors']} protocol errors")
    print(f"throughput {summary['qps']:.2f} qps over {summary['wall_seconds']:.2f}s; "
          f"latency p50 {_ms(latency['p50'])}, p95 {_ms(latency['p95'])}, "
          f"p99 {_ms(latency['p99'])}, max {_ms(latency['max'])}")
    if summary.get("peak_queue_depth") is not None:
        print(f"server peak queue depth {summary['peak_queue_depth']} "
              f"(bound {summary['max_queue_depth']})")
    unstable = {k: v for k, v in summary["distinct_digests_per_query"].items() if v > 1}
    if unstable:
        print(f"WARNING: non-deterministic answers for {unstable}")
    if args.output:
        report.write_json(args.output, mode=args.mode,
                          queries_per_session=args.queries, seed=args.seed)
        print(f"wrote load report to {args.output}")
    if report.protocol_errors or report.errors:
        return 1
    return 0


def _cmd_slo(args) -> int:
    from repro.experiments.report import format_table
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}")
        return 1
    with client:
        client.hello()
        payload = client.slo()
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0

    calibration = payload.get("calibration") or []
    if calibration:
        nominal = payload.get("nominal_coverage", 0.95)
        rows = [
            {
                "tenant": row["tenant"],
                "sampler": row["sampler_kind"],
                "rung": row["rung"],
                "audits": row["audits"],
                "coverage": (
                    f"{row['observed_coverage']:.1%}"
                    if row["observed_coverage"] is not None else "-"
                ),
                "rel_err mean/max": (
                    f"{row['mean_rel_error']:.4f}/{row['max_rel_error']:.4f}"
                    if row["mean_rel_error"] is not None else "-"
                ),
                "missed groups": (
                    f"{row['groups_missed']}/"
                    f"{row['groups_missed'] + row['groups_matched']}"
                ),
            }
            for row in calibration
        ]
        print(format_table(
            rows,
            title=f"CI calibration vs nominal {nominal:.0%} (exact-replay audits)",
        ))
    else:
        print("no completed audits yet (serve with --audit-fraction > 0 "
              "and send approximate queries)")

    slo = payload.get("slo") or {}
    if slo:
        slo_ms = payload.get("latency_slo_ms")
        target = payload.get("slo_target", 0.99)
        rows = [
            {
                "tenant": tenant,
                "requests": entry["requests"],
                "violations": entry["violations"],
                "cancelled": entry["cancelled"],
                "mean_ms": (
                    entry["mean_latency_ms"]
                    if entry["mean_latency_ms"] is not None else "-"
                ),
                "budget burn": (
                    f"{entry['error_budget_burn']:.2f}x"
                    if entry["error_budget_burn"] is not None else "-"
                ),
            }
            for tenant, entry in sorted(slo.items())
        ]
        bound = f"{slo_ms:.0f} ms bound" if slo_ms is not None else "no latency bound"
        print("\n" + format_table(
            rows, title=f"latency SLO (target {target:.0%}, {bound})"
        ))

    extras = []
    for name in ("auditor", "flight"):
        section = payload.get(name) or {}
        if section:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(section.items()))
            extras.append(f"{name}: {detail}")
    if payload.get("audits_abandoned"):
        extras.append(f"audits abandoned: {payload['audits_abandoned']}")
    if extras:
        print("\n" + "\n".join(extras))
    return 0


def _cmd_postmortem(args) -> int:
    import os

    from repro.obs.flight import render_bundle

    path = args.path
    if os.path.isdir(path) and not os.path.exists(os.path.join(path, "record.json")):
        # A dump directory rather than one bundle: bundle names embed the
        # zero-padded query id, so lexical order is arrival order.
        bundles = sorted(
            os.path.join(path, entry)
            for entry in os.listdir(path)
            if entry.startswith("postmortem-")
        )
        if not bundles:
            print(f"{path}: no postmortem bundles")
            return 1
        if args.list:
            for bundle in bundles:
                print(bundle)
            return 0
        path = bundles[-1]
        print(f"rendering newest of {len(bundles)} bundle(s): {path}\n")
    try:
        print(render_bundle(path))
    except (OSError, ValueError) as exc:
        print(f"cannot render {path}: {exc}")
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.figures import figure2
    from repro.experiments.report import format_table

    data = figure2(num_queries=args.queries, seed=args.seed)
    print(f"total input: {data['total_pb']:.0f} PB; "
          f"half the cluster time touches {data['pb_at_half_cluster_time']:.1f} PB")
    rows = []
    for metric, paper in data["paper"].items():
        measured = data["measured"][metric]
        rows.append(
            {"metric": metric, **{f"{p}th": f"{measured[p]:.1f} ({paper[p]:g})" for p in (25, 50, 75, 90, 95)}}
        )
    print(format_table(rows, "Figure 2b percentiles: measured (paper)"))
    return 0


def _cmd_speedup(args) -> int:
    import time

    from repro.engine.executor import Executor
    from repro.experiments.report import format_table
    from repro.optimizer.planner import QuickrPlanner
    from repro.parallel import ParallelOptions, available_parallelism
    from repro.workloads.tpcds import QUERY_BUILDERS, generate_tpcds, queries, query_by_name

    db = generate_tpcds(scale=args.scale, seed=args.seed, stats=_wants_stats(args))
    planner = QuickrPlanner(db)
    if args.query:
        if args.query not in QUERY_BUILDERS:
            print(f"unknown query {args.query!r}; available: {', '.join(QUERY_BUILDERS)}")
            return 2
        targets = [query_by_name(db, args.query)]
    else:
        targets = queries(db)

    options = ParallelOptions(pool=args.pool, merge=args.merge)
    executor = Executor(db, parallelism=args.parallelism, parallel_options=options)
    serial = Executor(db)  # times the serial reference the measured column divides by
    rows = []
    for query in targets:
        plan = planner.plan(query).plan
        result = executor.execute(plan)
        metrics = result.parallel
        if metrics is None:  # parallelism <= 1 runs the plain serial path
            rows.append(
                {
                    "query": query.name,
                    "strategy": "serial",
                    "pool": "-",
                    "modeled": "1.00x",
                    "measured": "-",
                    "wall_s": "-",
                }
            )
            continue
        measured = "-"
        if metrics.worker_seconds:  # ran partition-parallel, not a serial fallback
            t0 = time.perf_counter()
            serial.execute(plan)
            measured = f"{(time.perf_counter() - t0) / metrics.wall_clock_seconds:.2f}x"
        rows.append(
            {
                "query": query.name,
                "strategy": metrics.strategy,
                "pool": metrics.pool_mode,
                "modeled": f"{metrics.modeled_speedup:.2f}x",
                "measured": measured,
                "wall_s": f"{metrics.wall_clock_seconds:.3f}",
            }
        )
    print(format_table(rows, title=f"partition-parallel speedup (D={args.parallelism})"))
    _write_metrics(args, executor)
    cores = available_parallelism()
    if cores < args.parallelism:
        print(f"\nnote: only {cores} usable core(s); measured speedup is "
              "bounded by hardware, modeled speedup shows the cluster-model ceiling")
    return 0


def _cmd_stats_catalog(args) -> int:
    """Build, inspect or validate the partition-statistics catalog."""
    from repro.experiments.report import format_table

    if args.workload == "tpch":
        from repro.workloads.tpch import generate_tpch

        db = generate_tpch(scale=args.scale, seed=args.seed)
    else:
        from repro.workloads.tpcds import generate_tpcds

        db = generate_tpcds(scale=args.scale, seed=args.seed)
    catalog = db.partition_stats
    if catalog is None:
        print("database carries no partition-statistics catalog")
        return 1

    if args.tables:
        tables = [t.strip() for t in args.tables.split(",") if t.strip()]
    else:
        tables = sorted(catalog.cluster_columns) or sorted(db.table_names())
    missing = [t for t in tables if t not in db]
    if missing:
        print(f"unknown table(s): {', '.join(missing)}")
        return 1

    if args.action == "build":
        rows = []
        for name in tables:
            layout = catalog.layout(name, args.partitions)
            summaries = catalog.summaries(name, args.partitions)
            rows.append(
                {
                    "table": name,
                    "layout": layout.strategy,
                    "cluster_col": next(iter(layout.columns), "-"),
                    "partitions": len(summaries),
                    "rows": sum(s.rows for s in summaries),
                    "MiB": round(sum(s.bytes for s in summaries) / (1024 * 1024), 2),
                }
            )
        print(format_table(rows, title=f"partition catalog (P={args.partitions})"))
        print(f"built: {len(catalog.built())} (table, partition-count) pair(s)")
        return 0

    if args.action == "inspect":
        for name in tables:
            summaries = catalog.summaries(name, args.partitions)
            layout = catalog.layout(name, args.partitions)
            cluster = next(iter(layout.columns), None)
            rows = []
            for summary in summaries:
                row = {
                    "partition": summary.partition,
                    "rows": summary.rows,
                    "KiB": round(summary.bytes / 1024, 1),
                }
                if cluster and cluster in summary.columns:
                    col = summary.columns[cluster]
                    row[f"{cluster} min"] = col.min_value
                    row[f"{cluster} max"] = col.max_value
                    row["distinct"] = col.distinct
                rows.append(row)
            print(format_table(rows, title=f"{name} ({layout.strategy})"))
        return 0

    # validate: force summaries to exist, then cross-check against live data.
    for name in tables:
        catalog.summaries(name, args.partitions)
    problems: List[str] = []
    for name in tables:
        problems.extend(catalog.validate(name))
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        print(f"{len(problems)} problem(s) found")
        return 1
    print(f"catalog consistent: {len(tables)} table(s) x {args.partitions} partition(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.log import LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quickr reproduction: lazy approximation of complex ad-hoc queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every data-touching subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default=None, choices=list(LEVELS),
                        help="attach the repro logger hierarchy to stderr at this level")
    common.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace of the run to FILE")
    common.add_argument("--metrics", default=None, metavar="FILE",
                        help="write the executor's metrics registry (JSON) to FILE")
    common.add_argument("--no-stats", action="store_true",
                        help="generate the workload database without a partition-"
                             "statistics catalog (disables partition pruning)")

    plan = sub.add_parser("plan", parents=[common],
                          help="show ASALQA's plan for a TPC-DS query")
    plan.add_argument("query", help="query name, e.g. q12")
    plan.add_argument("--scale", type=float, default=0.3)
    plan.add_argument("--seed", type=int, default=1)
    plan.add_argument("--execute", action="store_true", help="also run the plans and report gain")
    plan.add_argument("--parallelism", type=int, default=1,
                      help="degree of partition parallelism for --execute")
    plan.set_defaults(func=_cmd_plan)

    explain = sub.add_parser(
        "explain-analyze", parents=[common],
        help="run a query and render the annotated operator tree "
             "(estimated vs actual rows, sampler telemetry, CI widths)",
    )
    explain.add_argument("query", nargs="?", default=None,
                         help="query name, e.g. q07 (default: all 24)")
    explain.add_argument("--scale", type=float, default=0.3)
    explain.add_argument("--seed", type=int, default=1)
    explain.add_argument("--parallelism", type=int, default=1,
                         help="degree of partition parallelism; >1 also reports "
                              "the partition prune/select decision")
    explain.set_defaults(func=_cmd_explain)

    evaluate = sub.add_parser("evaluate", parents=[common],
                              help="run the full TPC-DS evaluation")
    evaluate.add_argument("--scale", type=float, default=0.3)
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--parallelism", type=int, default=1,
                          help="degree of partition parallelism for query execution")
    evaluate.set_defaults(func=_cmd_evaluate)

    speedup = sub.add_parser("speedup", parents=[common],
                             help="measure partition-parallel speedup per query")
    speedup.add_argument("--query", default=None, help="single query name (default: all)")
    speedup.add_argument("--scale", type=float, default=0.3)
    speedup.add_argument("--seed", type=int, default=1)
    speedup.add_argument("--parallelism", type=int, default=4)
    speedup.add_argument("--pool", default="auto", choices=["auto", "process", "thread", "inline"])
    speedup.add_argument("--merge", default="rows", choices=["rows", "partial"])
    speedup.set_defaults(func=_cmd_speedup)

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="run the workload under seeded fault injection (crashes, stragglers, corruption)",
    )
    chaos.add_argument("--scale", type=float, default=0.3)
    chaos.add_argument("--seed", type=int, default=7, help="fault placement + task seed")
    chaos.add_argument("--parallelism", type=int, default=4)
    chaos.add_argument("--pool", default="thread", choices=["auto", "process", "thread", "inline"])
    chaos.add_argument("--crashes", type=int, default=1, help="injected crashes per query")
    chaos.add_argument("--hangs", type=int, default=1, help="injected stragglers per query")
    chaos.add_argument("--corruptions", type=int, default=0,
                       help="injected corrupt results per query")
    chaos.add_argument("--hang-seconds", type=float, default=0.3,
                       help="how long an injected straggler sleeps")
    chaos.add_argument("--lose-partition", action="store_true",
                       help="also permanently lose one partition on every third query "
                            "(exercises graceful degradation)")
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the concurrent query service (JSON-line protocol over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads draining the shared run queue")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="bounded run queue; overflow is rejected (backpressure)")
    serve.add_argument("--tenant-quota", type=int, default=16,
                       help="max outstanding queries per tenant")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       help="grace given to in-flight queries on SIGTERM/SIGINT "
                            "before their cancellation tokens fire")
    serve.add_argument("--no-governor", action="store_true",
                       help="disable in-flight governance (deadlines, budgets, "
                            "degradation ladder)")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       help="per-query cap on live intermediate bytes (MiB); "
                            "over-budget queries degrade down the ladder")
    serve.add_argument("--tenant-weight", action="append", metavar="NAME=WEIGHT",
                       help="weighted round-robin weight for a tenant (repeatable)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve OpenMetrics at /metrics on this port "
                            "(0 picks an ephemeral port)")
    serve.add_argument("--telemetry", default=None, metavar="FILE",
                       help="append a JSONL metrics snapshot to FILE every "
                            "--telemetry-interval seconds")
    serve.add_argument("--telemetry-interval", type=float, default=10.0,
                       help="seconds between telemetry snapshots")
    serve.add_argument("--postmortem-dir", default=None, metavar="DIR",
                       help="dump flight-recorder postmortem bundles (spans, "
                            "decision trail, metrics) for cancelled/failed/"
                            "degraded queries into DIR")
    serve.add_argument("--audit-fraction", type=float, default=0.0,
                       help="fraction of served approximate answers the "
                            "background auditor re-executes exactly to check "
                            "CI calibration (0 disables)")
    serve.add_argument("--latency-slo-ms", type=float, default=None,
                       help="latency SLO bound; served answers over it burn "
                            "the tenant's error budget (see 'repro slo')")
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client", parents=[common],
        help="send one query (or --stats/--shutdown) to a running service",
    )
    client.add_argument("query", nargs="?", default=None, help="query name, e.g. q12")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8642)
    client.add_argument("--tenant", default="default")
    client.add_argument("--mode", default="quickr", choices=["quickr", "exact"])
    client.add_argument("--deadline-ms", type=float, default=None,
                        help="per-query deadline; infeasible queries are rejected")
    client.add_argument("--timeout", type=float, default=60.0)
    client.add_argument("--rows", type=int, default=0,
                        help="print up to N answer rows")
    client.add_argument("--stats", action="store_true", help="print service stats as JSON")
    client.add_argument("--shutdown", action="store_true", help="stop the server")
    client.set_defaults(func=_cmd_client)

    loadgen = sub.add_parser(
        "loadgen", parents=[common],
        help="drive concurrent sessions against a running service and report qps/p50/p99",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8642)
    loadgen.add_argument("--sessions", type=int, default=20)
    loadgen.add_argument("--queries", type=int, default=3,
                         help="queries per session")
    loadgen.add_argument("--tenants", default="alpha,beta,gamma,delta",
                         help="comma-separated tenant names, assigned round-robin")
    loadgen.add_argument("--query-names", default=None,
                         help="comma-separated query subset (default: server's suite)")
    loadgen.add_argument("--mode", default="quickr", choices=["quickr", "exact"])
    loadgen.add_argument("--deadline-ms", type=float, default=None)
    loadgen.add_argument("--timeout", type=float, default=120.0)
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument("--output", default=None, metavar="FILE",
                         help="write the machine-readable load report (JSON) to FILE")
    loadgen.set_defaults(func=_cmd_loadgen)

    slo = sub.add_parser(
        "slo",
        help="fetch a running service's accuracy calibration (exact-replay "
             "audits) and latency-SLO error-budget report",
    )
    slo.add_argument("--host", default="127.0.0.1")
    slo.add_argument("--port", type=int, default=8642)
    slo.add_argument("--timeout", type=float, default=30.0)
    slo.add_argument("--json", action="store_true",
                     help="print the raw ledger payload as JSON")
    slo.set_defaults(func=_cmd_slo)

    postmortem = sub.add_parser(
        "postmortem",
        help="render a flight-recorder postmortem bundle (decision trail, "
             "governance ticket, prune footer, span tree)",
    )
    postmortem.add_argument(
        "path",
        help="a bundle directory, its record.json, or the dump dir "
             "(renders the newest bundle)",
    )
    postmortem.add_argument("--list", action="store_true",
                            help="when PATH is a dump dir, list bundles "
                                 "instead of rendering")
    postmortem.set_defaults(func=_cmd_postmortem)

    stats = sub.add_parser(
        "stats-catalog", parents=[common],
        help="build, inspect or validate the partition-statistics catalog "
             "that drives partition pruning",
    )
    stats.add_argument("action", choices=["build", "inspect", "validate"],
                       help="build: materialize + summarize; inspect: per-partition "
                            "detail; validate: cross-check summaries against data")
    stats.add_argument("--workload", default="tpcds", choices=["tpcds", "tpch"])
    stats.add_argument("--scale", type=float, default=0.3)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--partitions", type=int, default=8,
                       help="partition count to lay out and summarize")
    stats.add_argument("--tables", default=None,
                       help="comma-separated table subset (default: the "
                            "cluster-column tables)")
    stats.set_defaults(func=_cmd_stats_catalog)

    trace = sub.add_parser("trace", help="regenerate the Figure 2 production-trace analysis")
    trace.add_argument("--queries", type=int, default=20_000)
    trace.add_argument("--seed", type=int, default=2016)
    trace.set_defaults(func=_cmd_trace)

    validate = sub.add_parser(
        "validate-trace",
        help="schema-check an exported Chrome/Perfetto trace "
             "(every event has ph/ts/pid/tid, no unclosed spans)",
    )
    validate.add_argument("path", help="trace file written by --trace")
    validate.set_defaults(func=_cmd_validate_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "log_level", None):
        from repro.obs.log import configure

        configure(args.log_level)

    trace_path = getattr(args, "trace", None)
    tracer = None
    if trace_path:
        from repro.obs import trace as obs_trace

        tracer = obs_trace.Tracer()
        previous = obs_trace.get_tracer()
        obs_trace.set_tracer(tracer)
    try:
        code = args.func(args)
    finally:
        if tracer is not None:
            obs_trace.set_tracer(previous)
    if tracer is not None:
        count = tracer.write_chrome(trace_path)
        print(f"wrote {count} trace events to {trace_path}")
        unclosed = tracer.unclosed()
        if unclosed:
            print(f"warning: {len(unclosed)} span(s) never closed "
                  f"(first: {unclosed[0].name})")
        problems = obs_trace.validate_chrome_trace(tracer.to_chrome())
        if problems:
            print(f"warning: trace failed schema validation ({problems[0]})")
    return code


if __name__ == "__main__":
    sys.exit(main())
