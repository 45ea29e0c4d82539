"""Tests for the background exact-replay accuracy auditor."""

import threading
import time

import pytest

from repro.engine.executor import Executor
from repro.obs.accuracy import AccuracyLedger
from repro.obs.registry import MetricsRegistry
from repro.optimizer.planner import QuickrPlanner
from repro.service.auditor import AuditorConfig, QueryAuditor
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name


class FakeAdmission:
    """Just the queue_depth surface the auditor's idle gate reads."""

    def __init__(self, depth=0):
        self.queue_depth = depth


def make_auditor(db, config=None, admission=None, registry=None):
    registry = registry if registry is not None else MetricsRegistry()
    return QueryAuditor(
        config or AuditorConfig(sample_fraction=1.0),
        QuickrPlanner(db),
        Executor(db, registry=registry),
        admission or FakeAdmission(),
        AccuracyLedger(registry),
        registry,
        lambda name: QUERY_BUILDERS[name](db),
    )


def served_answer(db, name="q01"):
    planner = QuickrPlanner(db)
    executor = Executor(db)
    return executor.execute(planner.plan(query_by_name(db, name)).plan).table


class TestConfig:
    def test_fraction_of_answers_audited(self):
        served = range(1, 20_001)
        assert all(map(AuditorConfig(sample_fraction=1.0).audits, served))
        assert not any(map(AuditorConfig(sample_fraction=0.0).audits, served))
        audited = sum(map(AuditorConfig(sample_fraction=0.1).audits, served))
        assert abs(audited - 2_000) < 4 * (20_000 * 0.1 * 0.9) ** 0.5

    def test_disabled_auditor_never_starts_a_thread(self, tiny_tpcds):
        auditor = make_auditor(
            tiny_tpcds, AuditorConfig(sample_fraction=0.0)
        ).start()
        assert auditor._thread is None
        assert not auditor.summary()["enabled"]
        auditor.close()


class TestEnqueue:
    def test_exact_answers_are_never_audited(self, tiny_tpcds):
        auditor = make_auditor(tiny_tpcds)
        assert not auditor.maybe_enqueue("q01", "exact", "t", "exact", None)
        assert not auditor.maybe_enqueue("q01", "quickr", "t", "exact", None)
        assert auditor.backlog == 0

    def test_periodic_mix_audits_every_query(self, tiny_tpcds):
        """A mix of k queries served round-robin at fraction 1/k: a stride
        of k would audit the same query every time; the hash draw audits
        each of them, and the same ones on every replay of the session."""
        k, rounds = 4, 10
        config = AuditorConfig(sample_fraction=1 / k, max_queue=k * rounds)
        names = [f"q{i:02d}" for i in range(1, k + 1)] * rounds
        picked = []
        for _ in range(2):
            auditor = make_auditor(tiny_tpcds, config)
            picked.append([
                name for name in names
                if auditor.maybe_enqueue(name, "quickr", "t", "quickr", None)
            ])
        assert picked[0] == picked[1]
        assert set(picked[0]) == set(names)
        assert len({name for i, name in enumerate(names, start=1) if i % k == 0}) == 1

    def test_queue_overflow_drops_and_counts(self, tiny_tpcds):
        auditor = make_auditor(
            tiny_tpcds,
            AuditorConfig(sample_fraction=1.0, max_queue=2),
        )
        for i in range(4):
            auditor.maybe_enqueue(f"q{i:02d}", "quickr", "t", "quickr", None)
        assert auditor.backlog == 2
        assert auditor.ledger.report()["audits_abandoned"] == 2


class TestAudit:
    def test_end_to_end_fills_calibration(self, tiny_tpcds):
        auditor = make_auditor(tiny_tpcds)
        approx = served_answer(tiny_tpcds, "q02")
        auditor.maybe_enqueue("q02", "quickr", "ads", "quickr", approx)
        job = auditor._next_job()
        assert job is not None
        auditor._audit(job)
        assert auditor.summary()["completed"] == 1
        [row] = auditor.ledger.report()["calibration"]
        assert row["tenant"] == "ads" and row["rung"] == "quickr"
        assert row["sampler_kind"] not in ("", "unknown")
        assert row["cells_checked"] > 0
        assert row["audit_seconds"] > 0

    def test_background_thread_drains_queue(self, tiny_tpcds):
        auditor = make_auditor(tiny_tpcds).start()
        try:
            approx = served_answer(tiny_tpcds, "q02")
            auditor.maybe_enqueue("q02", "quickr", "t", "quickr", approx)
            assert auditor.wait_drained(timeout=30.0)
            assert auditor.summary()["completed"] == 1
        finally:
            auditor.close()

    def test_preempt_cancels_inflight_replay(self, tiny_tpcds):
        auditor = make_auditor(tiny_tpcds)
        assert not auditor.preempt()  # nothing in flight
        from repro.engine.governance import GovernanceContext

        ctx = GovernanceContext()
        auditor._inflight = ctx
        assert auditor.preempt()
        assert ctx.token.cancelled and ctx.token.reason == "auditor-yield"

    def test_preempted_audit_requeues_then_abandons(self, tiny_tpcds):
        auditor = make_auditor(
            tiny_tpcds,
            AuditorConfig(sample_fraction=1.0, max_attempts=2),
        )
        approx = served_answer(tiny_tpcds, "q02")

        # Fire the token before execution starts: every replay attempt
        # unwinds with a GovernanceError at its first checkpoint.
        real_execute = auditor.executor.execute

        def sabotaged(plan, governance=None, **kwargs):
            if governance is not None:
                governance.token.cancel("auditor-yield")
            return real_execute(plan, governance=governance, **kwargs)

        auditor.executor.execute = sabotaged
        auditor.maybe_enqueue("q02", "quickr", "t", "quickr", approx)
        job = auditor._next_job()
        auditor._audit(job)  # attempt 1: preempted, requeued
        assert auditor.backlog == 1 and auditor.summary()["preempted"] == 1
        job = auditor._next_job()
        auditor._audit(job)  # attempt 2: hits max_attempts, abandoned
        assert auditor.backlog == 0
        assert auditor.ledger.report()["audits_abandoned"] == 1
        assert auditor.summary()["completed"] == 0

    def test_idle_gate_waits_for_live_queue(self, tiny_tpcds):
        admission = FakeAdmission(depth=1)
        auditor = make_auditor(
            tiny_tpcds,
            AuditorConfig(sample_fraction=1.0,
                          idle_poll_seconds=0.01),
            admission=admission,
        )
        auditor.maybe_enqueue("q01", "quickr", "t", "quickr", None)
        got = []

        def fetch():
            got.append(auditor._next_job())

        t = threading.Thread(target=fetch)
        t.start()
        time.sleep(0.15)
        assert not got, "auditor started a replay while live queries queued"
        admission.queue_depth = 0
        t.join(timeout=5.0)
        assert got and got[0] is not None

    def test_summary_shape(self, tiny_tpcds):
        summary = make_auditor(tiny_tpcds).summary()
        assert summary["enabled"] and summary["sample_fraction"] == 1.0
        assert {"served_approx", "backlog", "completed", "preempted"} <= set(
            summary
        )


class TestServiceIntegration:
    def test_service_with_auditor_produces_calibration(self, tiny_tpcds):
        from repro.service import (
            QueryServer, ServiceClient, ServiceConfig,
        )
        from repro.service.server import QueryService

        config = ServiceConfig(
            num_workers=2,
            audit=AuditorConfig(sample_fraction=1.0),
        )
        service = QueryService(tiny_tpcds, config)
        server = QueryServer(service, port=0).start()
        try:
            host, port = server.address
            with ServiceClient(host, port, timeout=60.0) as client:
                client.hello(tenant="ads")
                for _ in range(2):
                    client.query("q02")
                assert service.auditor.wait_drained(timeout=60.0)
                report = client.slo()
            assert report["auditor"]["completed"] >= 1
            rows = report["calibration"]
            assert rows and all(r["tenant"] == "ads" for r in rows)
            assert all(r["rung"] == "quickr" for r in rows)
        finally:
            server.stop()

    def test_live_submit_preempts_inflight_audit(self, tiny_tpcds):
        """A new live query fires the in-flight replay's token."""
        from repro.engine.governance import GovernanceContext
        from repro.service import QueryServer, ServiceClient, ServiceConfig

        from repro.service.server import QueryService

        config = ServiceConfig(
            num_workers=2,
            audit=AuditorConfig(sample_fraction=1.0),
        )
        service = QueryService(tiny_tpcds, config)
        server = QueryServer(service, port=0).start()
        try:
            ctx = GovernanceContext()
            service.auditor._inflight = ctx
            host, port = server.address
            with ServiceClient(host, port, timeout=60.0) as client:
                client.hello()
                client.query("q02")
            assert ctx.token.cancelled
            assert ctx.token.reason == "auditor-yield"
        finally:
            service.auditor._inflight = None
            server.stop()
