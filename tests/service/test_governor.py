"""The governor's degradation ladder: unit mechanics and service wiring.

Unit tests drive :class:`QueryGovernor` with scripted collaborators so
each ladder transition (pressure, infeasible-deadline, mid-flight budget,
salvaged partial) is asserted in isolation; integration tests run the real
service — in-process and over a socket — and assert the visible contract:
degraded replies carry ``{rung, reason, ladder}``, governance endings are
typed ``cancelled.*`` errors, client disconnects cancel mid-flight, and a
drain rejects new work while finishing or cancelling the old.
"""

import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.algebra.builder import scan
from repro.algebra.logical import SamplerNode
from repro.engine.governance import GovernanceContext
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    DeadlineExceeded,
    QueryCancelled,
)
from repro.obs.registry import MetricsRegistry
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from repro.service import protocol
from repro.service.admission import AdmissionConfig, AdmissionController, QueryTicket
from repro.service.governor import GovernorConfig, QueryGovernor, coarsen_samplers
from repro.service.server import QueryServer, QueryService, ServiceConfig
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name


def uniform_plan(sales_db, p=0.2):
    return SamplerNode(scan(sales_db, "sales").node, UniformSpec(p, seed=1))


class TestCoarsenSamplers:
    def test_scales_uniform_with_floor(self, sales_db):
        plan = uniform_plan(sales_db, p=0.2)
        coarse, changed = coarsen_samplers(plan, factor=0.25, min_p=0.01)
        assert changed == 1
        assert coarse.spec.p == pytest.approx(0.05)
        assert coarse.spec.seed == plan.spec.seed  # determinism preserved
        floored, _ = coarsen_samplers(plan, factor=1e-9, min_p=0.01)
        assert floored.spec.p == pytest.approx(0.01)

    def test_universe_samplers_are_frozen(self, sales_db):
        # Universe rates are baked into COUNT-DISTINCT rescaling at plan
        # time; coarsening them afterwards would bias the answer.
        plan = SamplerNode(
            scan(sales_db, "sales").node, UniverseSpec(("s_cust",), 0.25, seed=7)
        )
        coarse, changed = coarsen_samplers(plan, factor=0.25)
        assert changed == 0
        assert coarse.spec.p == pytest.approx(0.25)

    def test_no_headroom_reports_zero(self, sales_db):
        plan = scan(sales_db, "sales").node  # no samplers at all
        _, changed = coarsen_samplers(plan, factor=0.25)
        assert changed == 0


class _ScriptedExecutor:
    """Replays a list of outcomes (results or exceptions) per execute()."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def execute(self, plan, governance=None):
        self.calls.append(plan)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class _StubPlanner:
    def __init__(self, quickr_plan, exact_plan=None):
        self._quickr = quickr_plan
        self._exact = exact_plan if exact_plan is not None else quickr_plan

    def plan(self, query):
        return SimpleNamespace(plan=self._quickr)

    def plan_baseline(self, query):
        return SimpleNamespace(plan=self._exact)


def make_governor(sales_db, outcomes, config=None, plan=None):
    registry = MetricsRegistry()
    admission = AdmissionController(AdmissionConfig(), registry)
    executor = _ScriptedExecutor(outcomes)
    planner = _StubPlanner(plan if plan is not None else uniform_plan(sales_db))
    governor = QueryGovernor(
        config or GovernorConfig(), planner, executor, admission, registry
    )
    return governor, executor, admission, registry


def make_ticket(deadline_at=None, mode="quickr"):
    session = SimpleNamespace(tenant="t")
    ctx = GovernanceContext(deadline_at=deadline_at)
    return QueryTicket(session, "q", mode, deadline_at, governance=ctx)


OK = SimpleNamespace(degraded=False)


class TestLadderMechanics:
    def test_clean_run_is_undegraded(self, sales_db):
        governor, executor, _, _ = make_governor(sales_db, [OK])
        result, info = governor.run(make_ticket(), query=None)
        assert result is OK and info is None
        assert len(executor.calls) == 1

    def test_budget_trip_steps_down_to_coarse(self, sales_db):
        governor, executor, _, registry = make_governor(
            sales_db, [BudgetExceeded("too big"), OK]
        )
        result, info = governor.run(make_ticket(), query=None)
        assert result is OK
        assert info["rung"] == "quickr-coarse"
        assert info["reason"] == "budget"
        assert info["ladder"] == [
            {"from": "quickr", "to": "quickr-coarse", "reason": "budget"}
        ]
        assert len(executor.calls) == 2
        # The retried plan really is the coarsened one.
        assert executor.calls[1].spec.p < executor.calls[0].spec.p
        assert registry.value(
            "service.governor.downgrades", rung="quickr-coarse", reason="budget"
        ) == 1.0

    def test_budget_at_bottom_rung_raises_typed(self, sales_db):
        governor, _, _, _ = make_governor(
            sales_db,
            [BudgetExceeded("too big")],
            plan=scan(sales_db, "sales").node,  # nothing to coarsen
        )
        with pytest.raises(BudgetExceeded):
            governor.run(make_ticket(), query=None)

    def test_pressure_starts_one_rung_lower(self, sales_db):
        governor, executor, _, _ = make_governor(
            sales_db, [OK], config=GovernorConfig(queue_pressure_fraction=0.0)
        )
        result, info = governor.run(make_ticket(), query=None)
        assert info["reason"] == "pressure"
        assert info["rung"] == "quickr-coarse"
        assert len(executor.calls) == 1  # downgraded before running, not after

    def test_pressure_without_headroom_stays_put(self, sales_db):
        governor, executor, _, _ = make_governor(
            sales_db,
            [OK],
            config=GovernorConfig(queue_pressure_fraction=0.0),
            plan=scan(sales_db, "sales").node,
        )
        result, info = governor.run(make_ticket(), query=None)
        assert info is None  # no coarser plan exists; served at full rate

    def test_infeasible_deadline_steps_down_preflight(self, sales_db):
        governor, executor, admission, _ = make_governor(sales_db, [OK])
        admission.estimator.observe(("q", "quickr"), 10.0)  # way over budget
        ticket = make_ticket(deadline_at=time.monotonic() + 0.5)
        result, info = governor.run(ticket, query=None)
        assert info["reason"] == "infeasible-deadline"
        assert info["rung"] == "quickr-coarse"
        assert len(executor.calls) == 1

    def test_cancelled_never_walks_the_ladder(self, sales_db):
        governor, executor, _, _ = make_governor(sales_db, [OK])
        ticket = make_ticket()
        ticket.governance.token.cancel("client-disconnect")
        with pytest.raises(QueryCancelled):
            governor.run(ticket, query=None)
        assert executor.calls == []  # never reached the engine

    def test_selection_rung_used_when_coarsening_has_no_headroom(self, sales_db):
        """With coarsen_factor=1.0 the quickr-coarse rung produces no new
        plan, so pressure steps past it onto quickr-select — available
        because the executor's database carries a partition catalog — and
        the ticket's governance context carries the selection fraction."""
        governor, executor, _, _ = make_governor(
            sales_db,
            [OK],
            config=GovernorConfig(
                queue_pressure_fraction=0.0, coarsen_factor=1.0, selection_fraction=0.4
            ),
        )
        executor.database = SimpleNamespace(partition_stats=object())
        ticket = make_ticket()
        result, info = governor.run(ticket, query=None)
        assert info["rung"] == "quickr-select"
        assert info["reason"] == "pressure"
        assert ticket.governance.selection_fraction == pytest.approx(0.4)

    def test_selection_rung_needs_a_catalog(self, sales_db):
        governor, executor, _, _ = make_governor(
            sales_db,
            [OK],
            config=GovernorConfig(queue_pressure_fraction=0.0, coarsen_factor=1.0),
        )
        # No database/catalog on the executor: both degradation rungs are
        # unavailable, so the query is served at full fidelity.
        result, info = governor.run(make_ticket(), query=None)
        assert info is None
        assert make_ticket().governance.selection_fraction is None

    def test_engine_salvage_is_the_partial_rung(self, sales_db):
        salvaged = SimpleNamespace(degraded=True, abort_reason="deadline")
        governor, _, _, registry = make_governor(sales_db, [salvaged])
        result, info = governor.run(make_ticket(), query=None)
        assert result is salvaged
        assert info["rung"] == "partial"
        assert info["reason"] == "deadline"
        assert registry.value("service.governor.degraded_replies") == 1.0


# -- integration: the real service --------------------------------------------

def slow_builder(db, seconds=0.4):
    time.sleep(seconds)
    return query_by_name(db, "q12")


def make_service(db, governor=None, builders=None, workers=2):
    config = ServiceConfig(
        num_workers=workers,
        admission=AdmissionConfig(max_queue_depth=16, tenant_quota=8),
        governor=governor or GovernorConfig(),
        drain_seconds=5.0,
    )
    return QueryService(db, config, query_builders=builders or dict(QUERY_BUILDERS))


class TestServiceIntegration:
    def test_degraded_reply_carries_rung_and_reason(self, tiny_tpcds):
        # queue_pressure_fraction=0 means permanent pressure: every query
        # with coarsening headroom (q15's quickr plan has a uniform
        # sampler) must serve one rung down and say so.
        service = make_service(
            tiny_tpcds, governor=GovernorConfig(queue_pressure_fraction=0.0)
        ).start()
        try:
            session = service.open_session()
            payload = service.execute(session, "q15", mode="quickr", timeout=60.0)
            assert payload["degraded"] is not None
            assert payload["degraded"]["rung"] == "quickr-coarse"
            assert payload["degraded"]["reason"] == "pressure"
            assert payload["stats"]["degraded"] is True
            assert service.registry.total("service.governor.degraded_replies") == 1
            # Exact-mode queries have no sampler rungs below them here,
            # and q07's quickr plan has no uniform sampler: both undegraded.
            clean = service.execute(session, "q07", mode="quickr", timeout=60.0)
            assert clean["degraded"] is None
        finally:
            service.close()

    def test_mid_flight_deadline_is_typed_cancelled(self, tiny_tpcds):
        builders = dict(QUERY_BUILDERS)
        builders["slow"] = lambda db: slow_builder(db, seconds=0.3)
        service = make_service(tiny_tpcds, builders=builders).start()
        try:
            session = service.open_session()
            # Admitted (no EWMA yet), but the builder outlives the 50 ms
            # deadline: the first checkpoint after it must trip, typed.
            with pytest.raises(DeadlineExceeded):
                service.execute(session, "slow", deadline_ms=50.0, timeout=30.0)
            assert service.ledger.report()["slo"]["default"]["cancelled"] == 1
            assert service.registry.value(
                "service.governor.cancelled", reason="deadline"
            ) == 1.0
        finally:
            service.close()

    def test_drain_rejects_new_and_cancels_stragglers(self, tiny_tpcds):
        builders = dict(QUERY_BUILDERS)
        builders["slow"] = lambda db: slow_builder(db, seconds=0.6)
        service = make_service(tiny_tpcds, builders=builders).start()
        session = service.open_session()
        outcome = {}

        def run_slow():
            try:
                service.execute(session, "slow", timeout=30.0)
                outcome["result"] = "served"
            except QueryCancelled as exc:
                outcome["cancelled"] = exc.reason_code

        waiter = threading.Thread(target=run_slow)
        waiter.start()
        deadline = time.monotonic() + 5.0
        while not service.admission.running_tickets():
            assert time.monotonic() < deadline, "slow query never dispatched"
            time.sleep(0.01)
        service.admission.begin_drain()
        with pytest.raises(AdmissionRejected) as info:
            service.submit(session, "q07")
        assert info.value.reason == "draining"
        # Grace shorter than the query: the straggler must be cancelled.
        finished = service.drain(grace_seconds=0.05)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert not finished
        assert outcome == {"cancelled": "shutdown-drain"}
        assert service.registry.value(
            "service.rejected", tenant=session.tenant, reason="draining"
        ) == 1.0

    def test_drain_with_idle_service_is_clean(self, tiny_tpcds):
        service = make_service(tiny_tpcds).start()
        assert service.drain(grace_seconds=1.0) is True  # nothing to cancel

    def test_client_disconnect_cancels_mid_flight(self, tiny_tpcds):
        builders = dict(QUERY_BUILDERS)
        builders["slow"] = lambda db: slow_builder(db, seconds=0.8)
        service = make_service(tiny_tpcds, builders=builders)
        server = QueryServer(service, port=0).start()
        try:
            registry = service.registry
            conn = socket.create_connection(server.address, timeout=10.0)
            protocol.send_message(conn, {"id": 1, "op": "query", "query": "slow"})
            time.sleep(0.2)  # the query is now mid-builder on a worker
            conn.close()  # client walks away
            deadline = time.monotonic() + 10.0
            while registry.value("service.governor.client_disconnects") is None:
                assert time.monotonic() < deadline, "disconnect never detected"
                time.sleep(0.02)
            # The worker unwinds at its first checkpoint and frees the slot.
            while service.admission.running_tickets():
                assert time.monotonic() < deadline, "worker never freed"
                time.sleep(0.02)
            assert registry.value(
                "service.governor.cancelled", reason="client-disconnect"
            ) == 1.0
        finally:
            server.stop()

    def test_stats_expose_governor_block(self, tiny_tpcds):
        service = make_service(tiny_tpcds).start()
        try:
            block = service.stats()["governor"]
            assert block["enabled"] is True
            assert set(block) >= {
                "downgrades", "degraded_replies", "cancelled", "client_disconnects",
            }
        finally:
            service.close()
