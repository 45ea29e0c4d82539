"""The query service: a long-running, multi-session server over the engine.

Two layers:

* :class:`QueryService` — transport-free core. Owns the shared engine
  stack (one :class:`~repro.optimizer.planner.QuickrPlanner`, one
  :class:`~repro.engine.executor.Executor` and therefore one
  ``PlanCache``, one :class:`~repro.obs.registry.MetricsRegistry`), the
  session registry and the admission controller, plus the pool of worker
  threads that drain the run queue. Tests and the in-process load
  benchmark drive this directly.
* :class:`QueryServer` — the TCP front-end. A listener thread accepts
  connections; each connection gets a reader thread that decodes
  JSON-line requests (:mod:`repro.service.protocol`), routes them through
  the service, and writes responses. Many concurrent clients multiplex
  onto the one shared engine underneath — the paper's setting of ad-hoc
  queries continuously arriving at a shared cluster.

Every query passes ``service.admit`` (admission decision),
``service.queue_wait`` (run-queue residency) and ``service.execute``
(engine time) spans, labeled with session and tenant, and the registry
gains ``service.*`` counters/histograms with tenant labels — so one trace
shows a query's whole life from socket to answer.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executor import Executor
from repro.engine.table import Database
from repro.errors import AdmissionRejected, GovernanceError, ProtocolError, ReproError
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.accuracy import AccuracyLedger
from repro.obs.export import MetricsHTTPServer, TelemetrySnapshotWriter
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.optimizer.planner import QuickrPlanner
from repro.service import protocol
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    QueryTicket,
    drain_worker,
)
from repro.service.auditor import AuditorConfig, QueryAuditor
from repro.service.governor import GovernorConfig, QueryGovernor
from repro.service.session import DEFAULT_TENANT, MODES, Session, SessionManager

_LOG = obs_log.logger("service.server")

__all__ = ["ServiceConfig", "QueryService", "QueryServer"]


@dataclass
class ServiceConfig:
    """Service-level knobs (engine knobs ride on the Executor itself)."""

    #: Worker threads draining the shared run queue.
    num_workers: int = 4
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: In-flight governance policy (deadlines, budgets, degradation ladder).
    governor: GovernorConfig = field(default_factory=GovernorConfig)
    #: Include full answer rows in responses (False = digest only).
    include_rows: bool = True
    #: Hard cap on rows serialized into one response.
    max_result_rows: int = 100_000
    #: Grace given to in-flight queries on shutdown before their tokens
    #: are fired (``shutdown-drain``).
    drain_seconds: float = 5.0
    #: Per-connection socket read timeout — the slow-loris guard: a peer
    #: that stalls mid-frame (or goes silent) longer than this is
    #: disconnected cleanly instead of pinning a reader thread forever.
    #: None disables.
    idle_timeout_seconds: Optional[float] = 300.0
    #: Per-connection frame-size cap (protocol robustness guard).
    max_frame_bytes: int = protocol.MAX_LINE_BYTES
    # -- telemetry plane -----------------------------------------------------
    #: Port of the ``/metrics`` + ``/healthz`` scrape endpoint; None
    #: disables the HTTP exporter.
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: Path of the periodic JSONL telemetry snapshot stream; None disables.
    telemetry_path: Optional[str] = None
    telemetry_interval_seconds: float = 10.0
    #: Directory postmortem bundles are written into; None keeps the
    #: flight-recorder ring in memory only (nothing touches disk).
    postmortem_dir: Optional[str] = None
    #: Flight-recorder ring size (recent queries kept in memory).
    flight_capacity: int = 256
    #: On-disk postmortem retention: oldest bundles deleted past this.
    max_postmortems: int = 16
    #: Background exact-replay accuracy auditor (off by default; the CLI's
    #: ``--audit-fraction`` turns it on).
    audit: AuditorConfig = field(
        default_factory=lambda: AuditorConfig(sample_fraction=0.0)
    )
    #: Per-tenant latency SLO fed to the accuracy/SLO ledger; None tracks
    #: only cancellations as violations.
    latency_slo_ms: Optional[float] = None
    #: SLO target (0.99 = a 1% error budget).
    slo_target: float = 0.99


class QueryService:
    """Transport-free service core: sessions + admission + shared engine."""

    def __init__(
        self,
        database: Database,
        config: Optional[ServiceConfig] = None,
        executor: Optional[Executor] = None,
        planner: Optional[QuickrPlanner] = None,
        registry: Optional[MetricsRegistry] = None,
        query_builders: Optional[Dict[str, Any]] = None,
    ):
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.database = database
        self.executor = executor if executor is not None else Executor(
            database, registry=self.registry
        )
        self.planner = planner if planner is not None else QuickrPlanner(database)
        self.sessions = SessionManager()
        self.admission = AdmissionController(self.config.admission, self.registry)
        self.governor = QueryGovernor(
            self.config.governor, self.planner, self.executor,
            self.admission, self.registry,
        )
        self._workers: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        if query_builders is not None:
            self._query_builders = dict(query_builders)
        else:
            from repro.workloads.tpcds import QUERY_BUILDERS

            self._query_builders = dict(QUERY_BUILDERS)
        # Telemetry plane: flight recorder, accuracy/SLO ledger, auditor,
        # and (lazily started) scrape endpoint + snapshot writer.
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity,
            dump_dir=self.config.postmortem_dir,
            max_bundles=self.config.max_postmortems,
        )
        self.ledger = AccuracyLedger(
            self.registry,
            latency_slo_ms=self.config.latency_slo_ms,
            slo_target=self.config.slo_target,
        )
        self.auditor = QueryAuditor(
            self.config.audit, self.planner, self.executor, self.admission,
            self.ledger, self.registry, self._query_builders, self.database,
        )
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self._telemetry: Optional[TelemetrySnapshotWriter] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "QueryService":
        with self._lifecycle_lock:
            if self._started:
                return self
            self._started = True
            for index in range(self.config.num_workers):
                thread = threading.Thread(
                    target=drain_worker,
                    args=(self.admission, self._handle_ticket),
                    name=f"service-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._workers.append(thread)
            self.auditor.start()
            if self.config.metrics_port is not None and self._metrics_server is None:
                self._metrics_server = MetricsHTTPServer(
                    self.registry,
                    host=self.config.metrics_host,
                    port=self.config.metrics_port,
                    extra=self._health_extra,
                ).start()
            if self.config.telemetry_path is not None and self._telemetry is None:
                self._telemetry = TelemetrySnapshotWriter(
                    self.registry,
                    self.config.telemetry_path,
                    interval_seconds=self.config.telemetry_interval_seconds,
                    extra=self._health_extra,
                ).start()
        _LOG.info("service started with %d workers", len(self._workers))
        return self

    def _health_extra(self) -> Dict[str, Any]:
        return {
            "queue_depth": self.admission.queue_depth,
            "draining": self.admission.draining,
            "audit_backlog": self.auditor.backlog,
        }

    def close(self) -> None:
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self.admission.close()
        for thread in self._workers:
            thread.join(timeout=10.0)
        self.auditor.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        if self._telemetry is not None:
            self._telemetry.close()
            self._telemetry = None
        _LOG.info("service closed")

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting (``rejected.draining``), let
        in-flight and queued queries finish for ``grace_seconds``, then
        fire the stragglers' cancellation tokens and close.

        Returns True when everything finished inside the grace period
        (nothing had to be cancelled)."""
        grace = self.config.drain_seconds if grace_seconds is None else grace_seconds
        self.admission.begin_drain()
        finished = self.admission.wait_idle(max(0.0, grace))
        if not finished:
            stragglers = self.admission.running_tickets()
            for ticket in stragglers:
                if ticket.cancel("shutdown-drain"):
                    self.registry.counter(
                        "service.governor.cancelled", reason="shutdown-drain"
                    ).inc()
            _LOG.warning(
                "drain grace (%.1fs) expired; cancelled %d in-flight queries",
                grace, len(stragglers),
            )
            # Bounded wait for the engine to unwind at its checkpoints.
            self.admission.wait_idle(10.0)
        self.close()
        return finished

    @property
    def query_names(self) -> Tuple[str, ...]:
        return tuple(self._query_builders)

    # -- session ops ---------------------------------------------------------
    def open_session(
        self,
        tenant: str = DEFAULT_TENANT,
        default_mode: str = "quickr",
        default_deadline_ms: Optional[float] = None,
    ) -> Session:
        session = self.sessions.open(tenant, default_mode, default_deadline_ms)
        self.registry.counter("service.sessions", tenant=session.tenant).inc()
        return session

    # -- query path ----------------------------------------------------------
    def submit(
        self,
        session: Session,
        query_name: str,
        mode: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> QueryTicket:
        """Admission-check and enqueue one query; raises
        :class:`AdmissionRejected` or :class:`ProtocolError` immediately,
        otherwise returns the ticket to wait on."""
        resolved_mode = session.resolve_mode(mode)
        if resolved_mode not in MODES:
            raise ProtocolError(f"unknown mode {resolved_mode!r}; expected one of {MODES}")
        if query_name not in self._query_builders:
            raise ProtocolError(
                f"unknown query {query_name!r}; available: "
                f"{', '.join(self._query_builders)}"
            )
        resolved_deadline = session.resolve_deadline_ms(deadline_ms)
        deadline_at = (
            time.monotonic() + resolved_deadline / 1000.0
            if resolved_deadline is not None else None
        )
        self.registry.counter("service.requests", tenant=session.tenant).inc()
        # Live traffic always outranks the background auditor: a replay in
        # flight yields at its next engine checkpoint and requeues.
        self.auditor.preempt()
        governance = (
            self.governor.governance_for(deadline_at)
            if self.config.governor.enabled else None
        )
        ticket = QueryTicket(
            session, query_name, resolved_mode, deadline_at, governance=governance
        )
        ticket.flight = self.flight.record(
            session.session_id, session.tenant, query_name, resolved_mode,
            deadline_ms=resolved_deadline,
        )
        tracer = obs_trace.current_tracer()
        admit_span = (
            tracer.begin("service.admit", session=session.session_id,
                         tenant=session.tenant, query=query_name, mode=resolved_mode)
            if tracer is not None else None
        )
        try:
            self.admission.submit(ticket)
        except AdmissionRejected as exc:
            ticket.flight.note("admission", "rejected",
                               reason=exc.reason, detail=str(exc))
            self.flight.finish(ticket.flight, f"rejected.{exc.reason}")
            if admit_span is not None:
                tracer.end(admit_span, status="rejected", reason=exc.reason)
            raise
        ticket.flight.note("admission", "admitted",
                           queue_depth=self.admission.queue_depth)
        if admit_span is not None:
            tracer.end(admit_span, queue_depth=self.admission.queue_depth)
        if tracer is not None:
            ticket.queue_span = tracer.begin(
                "service.queue_wait", parent_id=admit_span.span_id if admit_span else None,
                session=session.session_id, tenant=session.tenant, query=query_name,
            )
            ticket.queue_tracer = tracer
        return ticket

    def execute(
        self,
        session: Session,
        query_name: str,
        mode: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit and wait; returns the response payload dict.

        This is the one call a connection thread makes per query request.
        Raises :class:`AdmissionRejected` on rejection/drop, re-raises the
        engine's error on execution failure.
        """
        ticket = self.submit(session, query_name, mode, deadline_ms)
        if not ticket.wait(timeout):
            raise ReproError(f"query {query_name!r} timed out waiting for the service")
        if ticket.rejection is not None:
            raise ticket.rejection
        if ticket.error is not None:
            raise ticket.error
        return ticket.result

    def _capture_spans(self, ticket: QueryTicket, query_tracer, previous) -> None:
        """End per-query span capture: pop the override, store the buffer
        in the flight record, and splice it back into whatever tracer was
        active before (so ``--trace`` output is unchanged)."""
        obs_trace.pop_override(previous)
        spans = query_tracer.buffer()
        if ticket.flight is not None:
            ticket.flight.spans = spans
        target = obs_trace.current_tracer()
        if target is not None and target is not query_tracer:
            target.adopt(spans)

    def _finish_query(self, ticket: QueryTicket, outcome: str,
                      latency_seconds: Optional[float], cancelled: bool) -> None:
        """Terminal bookkeeping of one dispatched query: feed the SLO
        ledger, snapshot the governance ticket into the flight record, and
        dump a postmortem bundle when the ending was bad."""
        self.ledger.record_request(
            ticket.tenant, latency_seconds, cancelled=cancelled
        )
        record = ticket.flight
        if record is None:
            return
        ctx = ticket.governance
        if ctx is not None:
            record.governance = {
                "checks": ctx.checks,
                "peak_live_bytes": ctx.peak_live_bytes,
                "memory_budget_bytes": ctx.memory_budget_bytes,
                "deadline_at": ctx.deadline_at,
                "cancelled": ctx.token.cancelled,
                "cancel_reason": ctx.token.reason,
            }
        snapshot = (
            self.registry.snapshot()
            if self.flight.dump_dir is not None and self.flight.should_dump(outcome)
            else None
        )
        self.flight.finish(record, outcome, snapshot)

    def _handle_ticket(self, ticket: QueryTicket) -> Optional[float]:
        """Worker-side execution of one admitted ticket."""
        ticket.close_queue_span(wait_seconds=round(ticket.queue_wait_seconds, 6))
        session = ticket.session
        record = ticket.flight
        if record is not None:
            record.note(
                "service", "dispatch",
                queue_wait_ms=round(ticket.queue_wait_seconds * 1000.0, 3),
            )
        t0 = time.perf_counter()
        degraded_info: Optional[Dict[str, Any]] = None
        # Execution records into a private per-query tracer so the flight
        # record gets exactly this query's spans even when several workers
        # interleave; _capture_spans splices them back afterwards.
        query_tracer = obs_trace.Tracer(
            name=f"query-{record.query_id if record is not None else 0}"
        )
        previous = obs_trace.push_override(query_tracer)
        try:
            with obs_trace.maybe_span(
                "service.execute", session=session.session_id, tenant=ticket.tenant,
                query=ticket.query_name, mode=ticket.mode,
            ):
                query = self._query_builders[ticket.query_name](self.database)
                if ticket.governance is not None:
                    result, degraded_info = self.governor.run(ticket, query)
                else:
                    if ticket.mode == "exact":
                        plan = self.planner.plan_baseline(query).plan
                    else:
                        plan = self.planner.plan(query).plan
                    result = self.executor.execute(plan)
        except GovernanceError as exc:
            # The contract fired and nothing was salvageable: the query is
            # over, typed — never a hang, never a worker kept busy.
            self._capture_spans(ticket, query_tracer, previous)
            self.registry.counter(
                "service.governor.cancelled", reason=exc.reason_code
            ).inc()
            self._finish_query(
                ticket, f"cancelled.{exc.reason_code}",
                ticket.queue_wait_seconds + (time.perf_counter() - t0),
                cancelled=True,
            )
            ticket.fail(exc)
            return None
        except BaseException as exc:  # noqa: BLE001 - reported to the client
            self._capture_spans(ticket, query_tracer, previous)
            self._finish_query(
                ticket, "failed",
                ticket.queue_wait_seconds + (time.perf_counter() - t0),
                cancelled=True,
            )
            ticket.fail(exc)
            return None
        self._capture_spans(ticket, query_tracer, previous)
        execute_seconds = time.perf_counter() - t0
        self.registry.histogram(
            "service.execute_seconds", tenant=ticket.tenant
        ).observe(execute_seconds)
        wire = protocol.table_to_wire(
            result.table,
            include_rows=(
                self.config.include_rows
                and result.table.num_rows <= self.config.max_result_rows
            ),
        )
        rung = (
            degraded_info["rung"] if degraded_info is not None
            else ("exact" if ticket.mode == "exact" else "quickr")
        )
        if record is not None:
            record.degraded = degraded_info
            if result.parallel is not None and result.parallel.pruning:
                record.pruning = result.parallel.pruning
            record.note(
                "service", "served", rung=rung, rows=result.table.num_rows,
                execute_ms=round(execute_seconds * 1000.0, 3),
            )
        self._finish_query(
            ticket,
            "served.degraded" if degraded_info is not None else "served",
            ticket.queue_wait_seconds + execute_seconds,
            cancelled=False,
        )
        self.auditor.maybe_enqueue(
            ticket.query_name, ticket.mode, ticket.tenant, rung, result.table
        )
        ticket.resolve({
            "query": ticket.query_name,
            "mode": ticket.mode,
            "answer": wire,
            # None for a full-fidelity answer, else {rung, reason, ladder}.
            "degraded": degraded_info,
            "stats": {
                "queue_wait_ms": round(ticket.queue_wait_seconds * 1000.0, 3),
                "execute_ms": round(execute_seconds * 1000.0, 3),
                "compile_ms": round((result.compile_seconds or 0.0) * 1000.0, 3),
                "plan_cache_hit": bool(result.plan_cache_hit),
                "degraded": bool(result.degraded or degraded_info),
            },
        })
        return execute_seconds

    # -- introspection -------------------------------------------------------
    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """(host, port) of the running ``/metrics`` endpoint, if any."""
        server = self._metrics_server
        return server.address if server is not None else None

    def _session_counts(self) -> Dict[str, Any]:
        """Live sessions per tenant; ``opened`` is the ``service.sessions``
        counter and ``closed`` is opened minus live (floored at zero after a
        harvest, when sessions opened before it may still be live)."""
        by_tenant = self.sessions.by_tenant()
        live = sum(by_tenant.values())
        opened = int(self.registry.total("service.sessions"))
        return {
            "live": live,
            "opened": opened,
            "closed": max(0, opened - live),
            "by_tenant": by_tenant,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "sessions": self._session_counts(),
            "admission": self.admission.summary(),
            "plan_cache": self.executor.timings()["plan_cache"],
            "runtime_estimates": self.admission.estimator.snapshot(),
            "queries": {
                "served": self.registry.total("service.admitted"),
                "rejected": self.registry.total("service.rejected"),
            },
            "governor": {
                "enabled": self.config.governor.enabled,
                "downgrades": self.registry.total("service.governor.downgrades"),
                "degraded_replies": self.registry.total(
                    "service.governor.degraded_replies"
                ),
                "cancelled": self.registry.total("service.governor.cancelled"),
                "client_disconnects": self.registry.total(
                    "service.governor.client_disconnects"
                ),
            },
            "auditor": self.auditor.summary(),
            "flight": {
                "recorded": len(self.flight.recent()),
                "dumped": self.flight.dumped,
                "dump_dir": self.flight.dump_dir,
            },
        }

    def slo_report(self) -> Dict[str, Any]:
        """The ``repro slo`` payload: the ledger's calibration/burn report
        plus auditor and flight-recorder state."""
        report = self.ledger.report()
        report["auditor"] = self.auditor.summary()
        report["flight"] = {
            "recorded": len(self.flight.recent()),
            "dumped": self.flight.dumped,
            "dump_dir": self.flight.dump_dir,
        }
        return report


class QueryServer:
    """Threaded TCP front-end for a :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._listener = socket.create_server((host, port))
        # A blocked accept() holds the listening socket open past close()
        # (the in-flight syscall pins the file description), so the port
        # would keep accepting after stop(). Poll with a timeout instead;
        # accepted connections come back in blocking mode.
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._conn_threads: List[threading.Thread] = []
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "QueryServer":
        self.service.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        _LOG.info("listening on %s:%d", *self.address)
        return self

    def stop(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, drain in flight (new
        submissions get ``rejected.draining``, running queries keep their
        grace, stragglers are cancelled), close connections."""
        if self._stopping.is_set():
            # Another thread is (or was) tearing down; wait it out so
            # callers can rely on the port being released on return.
            self._stopped.wait(timeout=30.0)
            return
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self.service.drain(drain_seconds)
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)
        self._stopped.set()
        _LOG.info("server stopped")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown (e.g. via the shutdown op) has completed."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept/read loops ---------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed during shutdown
            with self._conn_lock:
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, peer),
                name=f"service-conn-{peer[1]}", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        handler = _Connection(self, conn)
        try:
            handler.run()
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)


class _Connection:
    """State machine of one client connection: session + request loop."""

    def __init__(self, server: QueryServer, conn: socket.socket):
        self.server = server
        self.service = server.service
        self.conn = conn
        self.session: Optional[Session] = None

    def respond(self, message: Dict[str, Any]) -> None:
        protocol.send_message(self.conn, message)

    def run(self) -> None:
        config = self.service.config
        if config.idle_timeout_seconds is not None:
            # Slow-loris guard: a peer stalling mid-frame (or silent past
            # the idle window) raises socket.timeout — an OSError — and
            # the connection closes instead of pinning this thread.
            try:
                self.conn.settimeout(config.idle_timeout_seconds)
            except OSError:
                return
        try:
            for request in protocol.read_messages(
                self.conn, max_line_bytes=config.max_frame_bytes
            ):
                if not self._handle(request):
                    break
        except ProtocolError as exc:
            self.service.registry.counter("service.protocol_errors").inc()
            try:
                self.respond(protocol.error_response(None, "protocol", str(exc)))
            except OSError:
                pass
        except OSError:
            pass  # peer vanished (or timed out) mid-exchange; nothing left to say
        finally:
            if self.session is not None:
                self.service.sessions.close(self.session.session_id)
            try:
                self.conn.close()
            except OSError:
                pass

    def _ensure_session(self) -> Session:
        """Queries before ``hello`` bill the default tenant."""
        if self.session is None:
            self.session = self.service.open_session()
        return self.session

    def _handle(self, request: Dict[str, Any]) -> bool:
        """Process one request; False ends the connection."""
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "hello":
                return self._op_hello(request_id, request)
            if op == "query":
                return self._op_query(request_id, request)
            if op == "ping":
                self.respond(protocol.ok_response(request_id, pong=True))
                return True
            if op == "stats":
                self.respond(protocol.ok_response(request_id, stats=self.service.stats()))
                return True
            if op == "slo":
                self.respond(protocol.ok_response(
                    request_id, slo=self.service.slo_report()
                ))
                return True
            if op == "close":
                self.respond(protocol.ok_response(request_id, closed=True))
                return False
            if op == "shutdown":
                self.respond(protocol.ok_response(request_id, stopping=True))
                # Stop from a helper thread: stop() joins connection
                # threads, and this *is* one.
                threading.Thread(target=self.server.stop, daemon=True).start()
                return False
            raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError as exc:
            self.service.registry.counter("service.protocol_errors").inc()
            self.respond(protocol.error_response(request_id, "protocol", str(exc)))
            return True

    def _op_hello(self, request_id, request: Dict[str, Any]) -> bool:
        if self.session is not None:
            self.service.sessions.close(self.session.session_id)
        defaults = request.get("defaults") or {}
        try:
            self.session = self.service.open_session(
                tenant=str(request.get("tenant", DEFAULT_TENANT)),
                default_mode=str(defaults.get("mode", "quickr")),
                default_deadline_ms=defaults.get("deadline_ms"),
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        self.respond(protocol.ok_response(
            request_id,
            session_id=self.session.session_id,
            tenant=self.session.tenant,
            protocol_version=protocol.PROTOCOL_VERSION,
            queries=list(self.service.query_names),
        ))
        return True

    def _peer_closed(self) -> bool:
        """Non-blocking probe for a client that hung up mid-query.

        The connection protocol is one-request-at-a-time, so while a query
        is in flight the socket should be quiet; a *readable* socket whose
        peeked read returns no bytes is an EOF — the client is gone. (A
        pipelining client that sends early merely reports not-closed.)
        """
        try:
            readable, _, _ = select.select([self.conn], [], [], 0)
        except (OSError, ValueError):
            return True  # socket already torn down
        if not readable:
            return False
        try:
            return self.conn.recv(1, socket.MSG_PEEK) == b""
        except (BlockingIOError, socket.timeout):
            return False
        except OSError:
            return True

    def _op_query(self, request_id, request: Dict[str, Any]) -> bool:
        session = self._ensure_session()
        query_name = request.get("query")
        if not isinstance(query_name, str):
            raise ProtocolError("query op requires a string 'query' field")
        mode = request.get("mode")
        deadline_ms = request.get("deadline_ms")
        try:
            ticket = self.service.submit(session, query_name, mode, deadline_ms)
        except AdmissionRejected as exc:
            self.respond(protocol.error_response(
                request_id, f"rejected.{exc.reason}", str(exc),
                retryable=exc.reason not in ("deadline",),
            ))
            return True
        # Wait for the ticket while watching the socket: a client that
        # disconnects mid-query fires the cancellation token, and the
        # engine stops at its next operator/task boundary instead of
        # finishing an answer nobody is waiting for.
        while not ticket.wait(0.05):
            if self._peer_closed():
                if ticket.cancel("client-disconnect"):
                    self.service.registry.counter(
                        "service.governor.client_disconnects"
                    ).inc()
                    _LOG.info(
                        "client of %s vanished; cancelled %s mid-flight",
                        session.session_id, query_name,
                    )
                # Bounded wait for the worker to unwind and release the
                # quota slot; then close — there is no one to answer.
                ticket.wait(30.0)
                return False
        if ticket.rejection is not None:
            exc = ticket.rejection
            self.respond(protocol.error_response(
                request_id, f"rejected.{exc.reason}", str(exc),
                retryable=exc.reason not in ("deadline",),
            ))
            return True
        if ticket.error is not None:
            error = ticket.error
            if isinstance(error, GovernanceError):
                self.respond(protocol.error_response(
                    request_id, f"cancelled.{error.reason_code}", str(error),
                    retryable=error.reason_code not in ("deadline",),
                ))
                return True
            self.respond(protocol.error_response(
                request_id, "execution", f"{type(error).__name__}: {error}"
            ))
            return True
        self.respond(protocol.ok_response(
            request_id, session_id=session.session_id, tenant=session.tenant,
            **ticket.result,
        ))
        return True
