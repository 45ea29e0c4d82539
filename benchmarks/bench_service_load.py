"""Service under load: 100+ concurrent sessions against one shared engine.

Boots the real TCP server in-process, drives it with the load generator
(one connection + session per thread), and holds the service to its three
contracts simultaneously:

* **correctness** — every answer served at full fidelity (the ``quickr``
  rung) is byte-for-byte identical to running the same query in library
  mode (fresh planner + executor on the same database), and every answer
  the governor served on a degraded rung under load (``quickr-coarse``,
  ...) is identical to every other answer of that query on that rung.
  Approximation noise comes from seeded samplers, never from concurrency.
* **admission control** — the run queue never exceeds its configured
  bound, and overload surfaces as explicit ``rejected.*`` responses (the
  client's request completes with a reason), not hangs: every request is
  accounted served / rejected / error.
* **service levels** — reports qps and client-observed p50/p99 latency,
  written to ``BENCH_service.json`` for trend tracking.

Scale is intentionally small (``REPRO_SERVICE_SCALE``, default 0.05): the
properties under test — bit-identity, bounded queues, explicit rejections
— are scale-independent, and 300+ requests dominate the signal.
"""

import os

from repro.engine.executor import Executor
from repro.optimizer.planner import QuickrPlanner
from repro.service import (
    AdmissionConfig,
    LoadConfig,
    QueryServer,
    QueryService,
    ServiceConfig,
    run_load,
)
from repro.service.protocol import table_digest
from repro.workloads.tpcds import generate_tpcds, query_by_name

SCALE = float(os.environ.get("REPRO_SERVICE_SCALE", "0.05"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
SESSIONS = int(os.environ.get("REPRO_SERVICE_SESSIONS", "100"))
QUERIES_PER_SESSION = int(os.environ.get("REPRO_SERVICE_QUERIES", "3"))
OUTPUT = os.environ.get("REPRO_SERVICE_BENCH_OUT", "BENCH_service.json")

QUERY_NAMES = ("q07", "q12", "q22")
MAX_QUEUE_DEPTH = 64


def library_digests(db):
    executor = Executor(db)
    planner = QuickrPlanner(db)
    return {
        name: table_digest(
            executor.execute(planner.plan(query_by_name(db, name)).plan).table
        )
        for name in QUERY_NAMES
    }


def test_service_sustains_100_sessions_bit_identical():
    db = generate_tpcds(scale=SCALE, seed=SEED)
    expected = library_digests(db)
    config = ServiceConfig(
        num_workers=8,
        admission=AdmissionConfig(max_queue_depth=MAX_QUEUE_DEPTH, tenant_quota=32),
    )
    with QueryServer(QueryService(db, config), port=0) as server:
        host, port = server.address
        load = LoadConfig(
            sessions=SESSIONS,
            queries_per_session=QUERIES_PER_SESSION,
            query_names=QUERY_NAMES,
            mode="quickr",
            seed=SEED,
        )
        report = run_load(host, port, load)

    # Every request is accounted for — rejections are explicit, not hangs.
    total_rejected = sum(report.rejected.values())
    assert report.requests == SESSIONS * QUERIES_PER_SESSION
    assert report.served + total_rejected == report.requests
    assert report.errors == 0
    assert report.protocol_errors == 0
    assert report.served > 0

    # Admission control bounded the run queue.
    admission = report.server_stats["admission"]
    assert admission["peak_queue_depth"] <= MAX_QUEUE_DEPTH

    # Bit-identity: under 100-way concurrency, every full-fidelity answer
    # equals library-mode execution of the same query; answers the governor
    # served on a lower rung are a different (coarser) plan, so they are
    # held to agreeing with each other.
    for (name, _mode, rung), served in report.digests.items():
        if rung == "quickr":
            assert served == {expected[name]}, f"{name} diverged under load"
        else:
            assert len(served) == 1, f"{name} is not deterministic on rung {rung}"

    percentiles = report.latency_percentiles()
    assert percentiles["p50"] is not None and percentiles["p99"] is not None
    assert report.qps > 0
    report.write_json(
        OUTPUT,
        scale=SCALE,
        workers=config.num_workers,
        query_names=list(QUERY_NAMES),
    )


def test_quota_overload_rejects_explicitly():
    db = generate_tpcds(scale=SCALE, seed=SEED)
    config = ServiceConfig(
        num_workers=2,
        admission=AdmissionConfig(max_queue_depth=64, tenant_quota=2),
    )
    with QueryServer(QueryService(db, config), port=0) as server:
        host, port = server.address
        # 24 sessions of ONE tenant firing together against quota 2: most
        # submissions find the tenant's two slots taken.
        load = LoadConfig(
            sessions=24,
            queries_per_session=2,
            tenants=("burst",),
            query_names=QUERY_NAMES,
            mode="quickr",
            seed=SEED,
        )
        report = run_load(host, port, load)

    total_rejected = sum(report.rejected.values())
    assert report.served + total_rejected == report.requests == 48
    assert report.errors == 0 and report.protocol_errors == 0
    assert report.rejected.get("quota", 0) > 0, report.rejected
    # The service kept serving within quota while rejecting the excess.
    assert report.served > 0
