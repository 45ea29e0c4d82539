"""One-shot timings of layers no query pass isolates (traced run only).

Each function calls a layer's public functions directly on the workload's
own data or answers, under a span named after the per-layer metric it
feeds, so the numbers land in ``trace.json`` beside the query spans. The
caller runs each function ``ROUNDS`` times, as repetitions of their own, and
reports the median, so one scheduler hiccup does not decide a number.
"""

from __future__ import annotations

import time
from typing import Iterable, List

import numpy as np

from repro.engine.table import Table, rowid_column_name
from repro.obs import trace as obs_trace
from repro.parallel import HASH, Partitioner, merge_rows, transport
from repro.service import (
    AdmissionController,
    QueryService,
    QueryTicket,
    ServiceConfig,
    protocol,
)
from repro.stats.catalog import PartitionCatalog
from repro.workloads.tpcds import FACT_TABLES
from spans import Off

ROUNDS = 3


def warm_caches(path, rec) -> None:
    """Second ``plan()`` / ``compile()`` of every query: the memo and
    compiled-plan cache hit paths the served workload lives on."""
    planner, executor, queries, _ = path.setup()
    plans = [p.plan for q in queries for p in (planner.plan_baseline(q), planner.plan(q))]
    with rec.span("planner.memo_hit_s"):
        for query in queries:
            planner.plan_baseline(query)
            planner.plan(query)
    for plan in plans:
        executor.compile(plan)
    with rec.span("compile.hit_s"):
        for plan in plans:
            executor.compile(plan)


def tracer_overhead(path) -> float:
    """Quickr pass time with the program's own ``repro.obs.trace.Tracer``
    installed over the time without, minus one (ROADMAP's <2 % row).
    Minimum of alternating passes on each side, as the difference is small."""
    on: List[float] = []
    off: List[float] = []
    for _ in range(ROUNDS):
        off.append(path.run_pass("quickr", Off()).wall_s)
        obs_trace.set_tracer(obs_trace.Tracer("perf-overhead"))
        try:
            on.append(path.run_pass("quickr", Off()).wall_s)
        finally:
            obs_trace.set_tracer(None)
    return min(on) / min(off) - 1.0


def partition_layers(path, rec) -> None:
    """Split, ship, open, merge and summarise the workload's fact tables:
    what the parallel executor does around every query's tasks."""
    _, executor, _, _ = path.setup()
    db, degree = executor.database, path.degree
    for name in FACT_TABLES:
        base = db.table(name)
        table = base.with_columns(
            {rowid_column_name(0): np.arange(base.num_rows, dtype=np.int64)}
        )
        with rec.span("partition.split_s", table=name):
            parts = Partitioner(degree).split(table)
            Partitioner(degree, HASH, base.data_column_names()[:1]).split(table)
        with rec.span("transport.ship_s", table=name):
            refs, segments = transport.ship_partitions({name: parts}, transport.new_run_token())
        try:
            with rec.span("transport.open_s", table=name):
                opened = [transport.open_partition(ref) for ref in refs[name]]
            with rec.span("merge.rows_s", table=name):
                merge_rows(opened)
            del opened
        finally:
            with rec.span("transport.ship_s", table=name):
                transport.release_refs(segments)
        with rec.span("catalog.build_s", table=name):
            PartitionCatalog(db, db.partition_stats.cluster_columns).summaries(name, degree)


def protocol_layers(answers: Iterable[Table], rec) -> None:
    """Digest, wire-encode and decode every answer, both directions."""
    answers = list(answers)
    with rec.span("protocol.digest_s"):
        for table in answers:
            protocol.table_digest(table)
    with rec.span("protocol.to_wire_s"):
        wires = [protocol.table_to_wire(table) for table in answers]
    with rec.span("protocol.encode_s"):
        frames = [protocol.encode_message({"id": 1, "ok": True, "answer": w}) for w in wires]
    with rec.span("protocol.decode_s"):
        decoded = [protocol.decode_message(frame) for frame in frames]
    with rec.span("protocol.from_wire_s"):
        for message in decoded:
            protocol.table_from_wire(message["answer"])


def service_layers(path, rec) -> None:
    """Admission round trips, and what ``QueryService.execute`` spends
    outside the worker's execute window once caches are warm: admission,
    the hand-off between threads, answer encoding, flight record, ledger."""
    planner, executor, queries, _ = path.setup()
    names = [q.name for q in queries]
    service = QueryService(executor.database, ServiceConfig(num_workers=1),
                           executor=executor, planner=planner).start()
    try:
        session = service.open_session("bench")
        for name in names:  # fill the plan and compile caches
            service.execute(session, name, "quickr")
        with rec.span("service.core_overhead_s") as span:
            for name in names:
                t0 = time.perf_counter()
                reply = service.execute(session, name, "quickr")
                if span is not None:
                    rec.add("serve.execute", t0, reply["stats"]["execute_ms"] / 1000.0,
                            span, query=name)
    finally:
        service.close()
    admission = AdmissionController()
    tickets = [QueryTicket(session, name, "quickr") for name in names * 50]
    with rec.span("admission.roundtrip_s", tickets=len(tickets)):
        for ticket in tickets:
            admission.submit(ticket)
            admission.task_done(admission.next_ticket(timeout=1.0), None)
    admission.close()
