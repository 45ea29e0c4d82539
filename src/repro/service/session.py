"""Per-session state of the query service.

A *session* is one client connection's registration with the service: it
names the tenant the connection bills against (admission quotas and fair
scheduling are per-tenant, so many sessions of one tenant share a budget)
and carries the defaults — execution mode, deadline — that individual
query requests may omit or override. Sessions are cheap bookkeeping
objects; all heavy state (plan caches, the worker pool) lives in the
shared engine underneath.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Session", "SessionManager", "DEFAULT_TENANT"]

#: Tenant billed when a connection never sends ``hello``.
DEFAULT_TENANT = "default"

#: Execution modes a session or query may request.
MODES = ("quickr", "exact")


@dataclass
class Session:
    """One client connection's identity and defaults. What its queries
    did is counted in the service's metrics registry, by tenant."""

    session_id: str
    tenant: str = DEFAULT_TENANT
    #: Default execution mode for queries that do not specify one.
    default_mode: str = "quickr"
    #: Default per-query deadline (milliseconds); None = no deadline.
    default_deadline_ms: Optional[float] = None

    def resolve_mode(self, requested: Optional[str]) -> str:
        return requested if requested is not None else self.default_mode

    def resolve_deadline_ms(self, requested: Optional[float]) -> Optional[float]:
        return requested if requested is not None else self.default_deadline_ms


class SessionManager:
    """Registry of live sessions, keyed by server-issued session id."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._counter = itertools.count(1)

    def open(
        self,
        tenant: str = DEFAULT_TENANT,
        default_mode: str = "quickr",
        default_deadline_ms: Optional[float] = None,
    ) -> Session:
        if default_mode not in MODES:
            raise ValueError(f"unknown mode {default_mode!r}; expected one of {MODES}")
        with self._lock:
            session_id = f"s{next(self._counter)}"
            session = Session(
                session_id=session_id,
                tenant=str(tenant),
                default_mode=default_mode,
                default_deadline_ms=default_deadline_ms,
            )
            self._sessions[session_id] = session
        return session

    def close(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def live(self) -> int:
        with self._lock:
            return len(self._sessions)

    def by_tenant(self) -> Dict[str, int]:
        """Live session count per tenant, in tenant order."""
        with self._lock:
            out: Dict[str, int] = {}
            for session in self._sessions.values():
                out[session.tenant] = out.get(session.tenant, 0) + 1
        return dict(sorted(out.items()))
