"""Client library for the query service.

:class:`ServiceClient` is a thin blocking wrapper over one TCP connection:
``hello`` opens a session (tenant + defaults) and refuses a server that
speaks another protocol version, ``query`` submits one query
and returns a :class:`QueryReply` with the reconstructed answer table —
digest-verified end to end — and the server's timing breakdown. Admission
rejections surface as :class:`~repro.errors.AdmissionRejected` with the
server's reason (``backpressure`` / ``quota`` / ``deadline``), so callers
can implement retry-with-backoff against explicit signals.

The client is intentionally one-request-at-a-time per connection;
concurrency comes from opening many sessions (each is cheap), which is
exactly how the load generator and the benchmark drive the server.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.engine.table import Table
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    DeadlineExceeded,
    ProtocolError,
    QueryCancelled,
    ServiceError,
)
from repro.service import protocol

__all__ = ["QueryReply", "ServiceClient"]


@dataclass
class QueryReply:
    """One served answer, as seen from the client."""

    query: str
    mode: str
    table: Optional[Table]
    digest: str
    num_rows: int
    #: Server-side timing breakdown: queue_wait_ms, execute_ms, compile_ms,
    #: plan_cache_hit, degraded.
    stats: Dict[str, Any]
    session_id: str
    tenant: str
    #: None for a full-fidelity answer; otherwise the governor's ladder
    #: record ``{"rung", "reason", "ladder"}`` — the answer is still
    #: statistically valid (reweighted, CIs widened) but approximate.
    degraded: Optional[Dict[str, Any]] = None


class ServiceClient:
    """Blocking JSON-line client for one connection to the service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: Optional[float] = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # A request is one small frame; send it now, not after the last ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = protocol.read_messages(self._sock)
        self._next_id = 0
        self.session_id: Optional[str] = None
        self.tenant: Optional[str] = None
        #: Query names the server advertised in the hello response.
        self.queries: tuple = ()

    # -- plumbing -------------------------------------------------------------
    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        protocol.send_message(self._sock, {"id": request_id, "op": op, **fields})
        try:
            response = next(self._reader)
        except StopIteration:
            raise ServiceError("server closed the connection") from None
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match request {request_id}"
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            code = str(error.get("code", "unknown"))
            message = str(error.get("message", "unknown error"))
            if code.startswith("rejected."):
                raise AdmissionRejected(code.split(".", 1)[1], message)
            if code.startswith("cancelled."):
                reason = code.split(".", 1)[1]
                if reason == "deadline":
                    raise DeadlineExceeded(message)
                if reason == "budget":
                    raise BudgetExceeded(message)
                raise QueryCancelled(message, reason_code=reason)
            raise ServiceError(f"{code}: {message}")
        return response

    # -- session --------------------------------------------------------------
    def hello(self, tenant: str = "default", mode: str = "quickr",
              deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        defaults: Dict[str, Any] = {"mode": mode}
        if deadline_ms is not None:
            defaults["deadline_ms"] = deadline_ms
        response = self._call("hello", tenant=tenant, defaults=defaults)
        version = response.get("protocol_version")
        if version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol version {version!r}; this client speaks "
                f"{protocol.PROTOCOL_VERSION}"
            )
        self.session_id = response["session_id"]
        self.tenant = response["tenant"]
        self.queries = tuple(response.get("queries", ()))
        return response

    # -- operations ------------------------------------------------------------
    def query(self, name: str, mode: Optional[str] = None,
              deadline_ms: Optional[float] = None) -> QueryReply:
        fields: Dict[str, Any] = {"query": name}
        if mode is not None:
            fields["mode"] = mode
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        response = self._call("query", **fields)
        wire = response["answer"]
        return QueryReply(
            query=response["query"],
            mode=response["mode"],
            table=protocol.table_from_wire(wire),
            digest=wire["digest"],
            num_rows=wire["num_rows"],
            stats=response.get("stats", {}),
            session_id=response.get("session_id", ""),
            tenant=response.get("tenant", ""),
            degraded=response.get("degraded"),
        )

    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    def stats(self) -> Dict[str, Any]:
        return self._call("stats")["stats"]

    def slo(self) -> Dict[str, Any]:
        """The server's accuracy/SLO ledger report (calibration + burn)."""
        return self._call("slo")["slo"]

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it goes down)."""
        self._call("shutdown")

    def close(self) -> None:
        try:
            self._call("close")
        except (ServiceError, OSError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
