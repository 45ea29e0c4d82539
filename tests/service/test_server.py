"""End-to-end service tests: real sockets, concurrent sessions, shared engine.

Every test talks to a :class:`QueryServer` bound to an ephemeral port on
loopback, through the real :class:`ServiceClient` — the full stack the
benchmark and CI smoke exercise, shrunk to the tiny TPC-DS database.
"""

import threading
import time

import pytest

from repro.engine.executor import Executor
from repro.errors import AdmissionRejected, ServiceError
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.service import (
    AdmissionConfig,
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import table_digest
from repro.workloads.tpcds import query_by_name

QUERIES = ("q07", "q12")


def start_server(db, **admission_kwargs):
    defaults = dict(max_queue_depth=16, tenant_quota=8)
    defaults.update(admission_kwargs)
    config = ServiceConfig(num_workers=3, admission=AdmissionConfig(**defaults))
    service = QueryService(db, config)
    return QueryServer(service, port=0).start()


@pytest.fixture(scope="module")
def server(tiny_tpcds):
    srv = start_server(tiny_tpcds)
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def library_digests(tiny_tpcds):
    """Library-mode answers (fresh planner + executor, same database)."""
    executor = Executor(tiny_tpcds)
    planner = QuickrPlanner(tiny_tpcds)
    digests = {}
    for name in QUERIES:
        query = query_by_name(tiny_tpcds, name)
        digests[(name, "quickr")] = table_digest(
            executor.execute(planner.plan(query).plan).table
        )
        digests[(name, "exact")] = table_digest(
            executor.execute(planner.plan_baseline(query).plan).table
        )
    return digests


def connect(server, tenant="default", **kwargs):
    host, port = server.address
    client = ServiceClient(host, port, timeout=60.0)
    client.hello(tenant=tenant, **kwargs)
    return client


class TestBasicOps:
    def test_hello_advertises_suite(self, server):
        with connect(server, tenant="ads") as client:
            assert client.tenant == "ads"
            assert "q07" in client.queries and len(client.queries) == 24

    def test_ping(self, server):
        with connect(server) as client:
            assert client.ping()

    def test_served_answer_bit_identical_to_library_mode(self, server, library_digests):
        with connect(server) as client:
            for name in QUERIES:
                for mode in ("quickr", "exact"):
                    reply = client.query(name, mode=mode)
                    # table_from_wire already verified the payload against
                    # the digest; here we pin the digest to library mode.
                    assert reply.digest == library_digests[(name, mode)], (
                        f"{name}/{mode} served answer differs from library execution"
                    )

    def test_repeated_query_hits_shared_plan_cache(self, server):
        with connect(server) as client:
            client.query("q07")
            reply = client.query("q07")
            assert reply.stats["plan_cache_hit"] is True

    def test_stats_op(self, server):
        with connect(server, tenant="statst") as client:
            client.query("q12")
            stats = client.stats()
            assert stats["admission"]["queue_depth"] == 0
            assert stats["sessions"]["live"] >= 1
            assert stats["plan_cache"]["size"] >= 1

    def test_session_defaults_apply(self, server, library_digests):
        with connect(server, mode="exact") as client:
            reply = client.query("q12")  # no explicit mode
            assert reply.mode == "exact"
            assert reply.digest == library_digests[("q12", "exact")]


class TestProtocolErrors:
    def test_unknown_query_is_protocol_error(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError, match="unknown query"):
                client.query("q99")
            assert client.ping()  # connection survives

    def test_unknown_op_is_protocol_error(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client._call("transmogrify")
            assert client.ping()

    def test_bad_mode_is_protocol_error(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError, match="unknown mode"):
                client.query("q07", mode="psychic")

    def test_disconnect_closes_session(self, tiny_tpcds):
        srv = start_server(tiny_tpcds)
        try:
            client = connect(srv, tenant="ghost")
            assert srv.service.sessions.live() == 1
            client.close()
            deadline = time.monotonic() + 5.0
            while srv.service.sessions.live() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.service.sessions.live() == 0
        finally:
            srv.stop()


class TestAdmissionOverWire:
    def _inject_slow_query(self, server, seconds=0.6):
        def slow_builder(db):
            time.sleep(seconds)
            return query_by_name(db, "q12")

        server.service._query_builders["slow"] = slow_builder

    def test_over_quota_gets_explicit_rejection_not_hang(self, tiny_tpcds):
        srv = start_server(tiny_tpcds, tenant_quota=1)
        try:
            self._inject_slow_query(srv)
            blocker = connect(srv, tenant="greedy")
            rival = connect(srv, tenant="greedy")
            other = connect(srv, tenant="polite")
            background = threading.Thread(
                target=lambda: blocker.query("slow"), daemon=True
            )
            background.start()
            time.sleep(0.2)  # slow query is now running, quota slot held
            start = time.monotonic()
            with pytest.raises(AdmissionRejected) as info:
                rival.query("q07")
            assert info.value.reason == "quota"
            assert time.monotonic() - start < 0.5  # rejected, not queued behind
            other.query("q07")  # another tenant is unaffected
            background.join(timeout=10.0)
            for client in (blocker, rival, other):
                client.close()
        finally:
            srv.stop()

    @staticmethod
    def _wait_for(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "timed out waiting for server state"
            time.sleep(0.01)

    def test_backpressure_over_wire(self, tiny_tpcds):
        srv = start_server(tiny_tpcds, max_queue_depth=1, tenant_quota=10)
        admission = srv.service.admission
        try:
            self._inject_slow_query(srv, seconds=2.0)
            clients = [connect(srv, tenant=f"t{i}") for i in range(6)]
            threads = []
            # Saturate the 3 workers one query at a time (wait until each
            # is dispatched off the queue), then park a 4th in the queue.
            for index, want_queued in ((0, 0), (1, 0), (2, 0), (3, 1)):
                thread = threading.Thread(
                    target=lambda c=clients[index]: c.query("slow"), daemon=True
                )
                thread.start()
                threads.append(thread)
                self._wait_for(
                    lambda index=index, want=want_queued: (
                        admission.queue_depth == want
                        and sum(admission.outstanding(f"t{i}") for i in range(4))
                        == index + 1
                    )
                )
            with pytest.raises(AdmissionRejected) as info:
                clients[5].query("q07")
            assert info.value.reason == "backpressure"
            for thread in threads:
                thread.join(timeout=15.0)
            for client in clients:
                client.close()
        finally:
            srv.stop()

    def test_deadline_rejection_over_wire(self, tiny_tpcds):
        srv = start_server(tiny_tpcds)
        try:
            with connect(srv) as client:
                client.query("q07")  # seeds the runtime estimator
                with pytest.raises(AdmissionRejected) as info:
                    client.query("q07", deadline_ms=0.01)
                assert info.value.reason == "deadline"
        finally:
            srv.stop()


class TestConcurrentSessions:
    def test_many_sessions_one_engine(self, server, library_digests):
        num_sessions = 12
        errors = []
        digests = []
        lock = threading.Lock()

        def session_run(index):
            try:
                with connect(server, tenant=f"tenant{index % 3}") as client:
                    for name in QUERIES:
                        reply = client.query(name)
                        with lock:
                            digests.append((name, reply.digest))
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=session_run, args=(i,), daemon=True)
            for i in range(num_sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        assert len(digests) == num_sessions * len(QUERIES)
        for name, digest in digests:
            assert digest == library_digests[(name, "quickr")]

    def test_tenant_metrics_labeled(self, tiny_tpcds):
        srv = start_server(tiny_tpcds)
        try:
            with connect(srv, tenant="labeled") as client:
                client.query("q12")
            registry = srv.service.registry
            assert registry.value("service.admitted", tenant="labeled") == 1
            hist = registry.histogram("service.execute_seconds", tenant="labeled")
            assert hist.count == 1
        finally:
            srv.stop()


class TestShutdown:
    def test_clean_shutdown_via_protocol(self, tiny_tpcds):
        srv = start_server(tiny_tpcds)
        host, port = srv.address
        client = connect(srv)
        client.query("q12")
        client.shutdown()
        assert srv.wait(timeout=10.0)
        # Workers drained and the port is released.
        for thread in srv.service._workers:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        with pytest.raises(OSError):
            ServiceClient(host, port, timeout=1.0)

    def test_stats_describe_the_cache_that_served_a_parallel_executor(self, tiny_tpcds):
        # One plan cache per executor: the parallel path compiles its
        # worker and upper plans into the cache the service reports on.
        executor = Executor(
            tiny_tpcds,
            parallelism=2,
            parallel_options=ParallelOptions(pool="inline", min_partition_rows=1),
        )
        service = QueryService(
            tiny_tpcds, ServiceConfig(num_workers=1), executor=executor
        ).start()
        try:
            session = service.open_session(tenant="par")
            for name in QUERIES:
                service.execute(session, name, "quickr")
            cache = service.stats()["plan_cache"]
        finally:
            service.close()
        assert cache["size"] > 0 and cache["misses"] >= cache["size"]
        assert cache == executor.timings()["plan_cache"]

    def test_stop_rejects_queued_tickets_explicitly(self, tiny_tpcds):
        config = ServiceConfig(num_workers=1, admission=AdmissionConfig(max_queue_depth=8))
        service = QueryService(tiny_tpcds, config)

        def slow_builder(db):
            time.sleep(0.5)
            return query_by_name(db, "q12")

        service._query_builders["slow"] = slow_builder
        service.start()
        session = service.open_session(tenant="t")
        running = service.submit(session, "slow")
        queued = service.submit(session, "q07")
        time.sleep(0.1)
        service.close()
        assert queued.wait(5.0)
        assert queued.rejection is not None
        assert queued.rejection.reason == "backpressure"
        assert running.wait(5.0)  # the in-flight query completed
