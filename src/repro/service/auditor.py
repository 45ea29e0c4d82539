"""The background accuracy auditor: exact replays of served answers.

The service promises calibrated error bars; the auditor checks the
promise against ground truth. A deterministic, hash-drawn fraction of
served *approximate* answers is enqueued for audit together with the
answer actually returned; a single
background thread replays each one **exactly** (``plan_baseline``, no
samplers) on the shared executor and reports the comparison to the
:class:`~repro.obs.accuracy.AccuracyLedger`, which maintains per
``(tenant, sampler-kind, governor-rung)`` observed-coverage calibration.

The audit workload must never compete with live traffic, so it runs at
strictly lowest priority:

* the worker only starts a replay when the admission run queue is empty
  — audits wait for an idle engine;
* every replay runs under its own :class:`GovernanceContext` whose token
  the service fires (``auditor-yield``) the moment a new live query is
  submitted; the engine unwinds at its next operator/task checkpoint and
  the audit goes back in the queue;
* a replay preempted ``max_attempts`` times is abandoned (counted in the
  ledger as ``accuracy.audits_abandoned``) rather than retried forever.

Which answers are audited: the ``i``-th served approximate answer is
audited when ``mix64(i)`` falls in the first ``sample_fraction`` of the
64-bit hash space. That is as deterministic as a stride (a replayed
session audits the same answers) but not periodic, so a query mix that
repeats with the stride's period does not audit one query forever
(DESIGN §15).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.algebra.logical import SamplerNode
from repro.engine.governance import GovernanceContext
from repro.errors import GovernanceError
from repro.obs import log as obs_log
from repro.obs.accuracy import AccuracyLedger, compare_tables
from repro.samplers.hashing import mix64

_LOG = obs_log.logger("service.auditor")

__all__ = ["AuditorConfig", "QueryAuditor"]


@dataclass(frozen=True)
class AuditorConfig:
    """Knobs of the background accuracy auditor."""

    #: Fraction of served approximate answers replayed exactly, drawn by a
    #: hash of each answer's serial number (see the module docstring); 0
    #: turns the auditor off.
    sample_fraction: float = 0.1
    #: Bounded audit backlog; overflow is dropped (never backpressure).
    max_queue: int = 32
    #: Preemptions tolerated per audit before it is abandoned.
    max_attempts: int = 3
    #: Poll interval while waiting for the engine to go idle.
    idle_poll_seconds: float = 0.05

    def audits(self, served: int) -> bool:
        """Whether the ``served``-th approximate answer is audited."""
        point = int(mix64(np.array([served], dtype=np.uint64))[0])
        return point < self.sample_fraction * 2.0**64


@dataclass
class _AuditJob:
    query_name: str
    mode: str
    tenant: str
    rung: str
    approx: Any  # the Table actually served
    attempts: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)


class QueryAuditor:
    """Replays a sampled fraction of served answers exactly, off-peak.

    Collaborators are passed in explicitly (planner, executor, admission,
    ledger, registry, the name → Query reader) so tests can drive audits
    without a running server, and so this module never imports the
    service core (no cycle).
    """

    def __init__(
        self,
        config: AuditorConfig,
        planner,
        executor,
        admission,
        ledger: AccuracyLedger,
        registry,
        query_for: Callable[[str], Any],
    ):
        self.config = config
        self.planner = planner
        self.executor = executor
        self.admission = admission
        self.ledger = ledger
        self.registry = registry
        #: name → Query; the service passes its build-once map's reader.
        self.query_for = query_for
        self._lock = threading.Lock()
        self._queue: List[_AuditJob] = []
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Governance context of the replay currently executing (if any);
        #: :meth:`preempt` fires its token from the service thread.
        self._inflight: Optional[GovernanceContext] = None
        #: True from the moment a job is popped until its audit finishes.
        #: ``_inflight`` alone leaves a gap while the replay is being
        #: planned, during which ``wait_drained`` would report idle.
        self._busy = False
        self._served_approx = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "QueryAuditor":
        if self._thread is None and self.config.sample_fraction > 0:
            self._thread = threading.Thread(
                target=self._run, name="service-auditor", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        self.preempt(reason="auditor-shutdown")
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # -- service-side hooks ----------------------------------------------------
    def maybe_enqueue(self, query_name: str, mode: str, tenant: str,
                      rung: str, approx_table) -> bool:
        """Called by the service worker after serving one answer.

        Exact answers have nothing to audit; approximate ones are drawn
        by :meth:`AuditorConfig.audits`. Returns True when an audit was
        enqueued.
        """
        if self.config.sample_fraction <= 0:
            return False
        if mode == "exact" or rung == "exact":
            return False
        with self._lock:
            self._served_approx += 1
            if not self.config.audits(self._served_approx):
                return False
            if len(self._queue) >= self.config.max_queue:
                dropped = True
            else:
                dropped = False
                self._queue.append(
                    _AuditJob(query_name, mode, tenant, rung, approx_table)
                )
        if dropped:
            self.ledger.record_abandoned("queue-full")
            return False
        self.registry.counter("auditor.enqueued", tenant=tenant).inc()
        self._wake.set()
        return True

    def preempt(self, reason: str = "auditor-yield") -> bool:
        """Yield to live traffic: cancel the in-flight replay (if any).

        Called by the service on every live submit; the audit requeues
        and resumes when the engine is idle again.
        """
        with self._lock:
            ctx = self._inflight
        if ctx is None:
            return False
        return ctx.token.cancel(reason)

    # -- introspection ---------------------------------------------------------
    @property
    def backlog(self) -> int:
        with self._lock:
            return len(self._queue)

    def summary(self) -> Dict[str, Any]:
        """The draw index and backlog, plus the audit counts the registry
        holds (``auditor.completed`` and ``auditor.preempted``)."""
        with self._lock:
            served, backlog = self._served_approx, len(self._queue)
        return {
            "enabled": self.config.sample_fraction > 0,
            "sample_fraction": self.config.sample_fraction,
            "served_approx": served,
            "backlog": backlog,
            "completed": int(self.registry.total("auditor.completed")),
            "preempted": int(self.registry.total("auditor.preempted")),
        }

    def wait_drained(self, timeout: float) -> bool:
        """Test helper: block until the backlog is empty and nothing is
        in flight, or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                idle = (not self._queue and self._inflight is None
                        and not self._busy)
            if idle:
                return True
            time.sleep(0.01)
        return False

    # -- worker ----------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            job = self._next_job()
            if job is None:
                continue
            try:
                self._audit(job)
            finally:
                with self._lock:
                    self._busy = False

    def _next_job(self) -> Optional[_AuditJob]:
        """Next audit, only once the live queue is empty (lowest priority)."""
        self._wake.wait(timeout=0.5)
        if self._stop.is_set():
            return None
        with self._lock:
            if not self._queue:
                self._wake.clear()
                return None
        # Idle gate: never start while live queries are queued.
        while self.admission.queue_depth > 0:
            if self._stop.wait(self.config.idle_poll_seconds):
                return None
        with self._lock:
            if not self._queue:
                return None
            self._busy = True
            return self._queue.pop(0)

    def _sampler_kinds(self, query) -> str:
        """Sampler kinds in this query's quickr plan (memoized planner, so
        this re-plan is a cache hit), as a stable label like ``uniform``
        or ``distinct+uniform``; ``none`` for sampler-free plans."""
        try:
            plan = self.planner.plan(query).plan
        except Exception:  # noqa: BLE001 - label only, never fail the audit
            return "unknown"
        kinds = sorted({
            node.spec.kind for node in plan.walk()
            if isinstance(node, SamplerNode)
        })
        return "+".join(kinds) if kinds else "none"

    def _audit(self, job: _AuditJob) -> None:
        try:
            query = self.query_for(job.query_name)
            exact_plan = self.planner.plan_baseline(query).plan
        except Exception as exc:  # noqa: BLE001 - audit must not kill the thread
            _LOG.warning("audit of %s failed to plan: %s", job.query_name, exc)
            self.ledger.record_abandoned("plan-failed")
            return
        ctx = GovernanceContext()
        with self._lock:
            self._inflight = ctx
        t0 = time.perf_counter()
        try:
            result = self.executor.execute(exact_plan, governance=ctx)
        except GovernanceError:
            # Preempted by live traffic (or shutdown): requeue or abandon.
            job.attempts += 1
            self.registry.counter("auditor.preempted").inc()
            if self._stop.is_set() or job.attempts >= self.config.max_attempts:
                self.ledger.record_abandoned("preempted")
            else:
                with self._lock:
                    if len(self._queue) < self.config.max_queue:
                        self._queue.append(job)
                        self._wake.set()
                        job = None
                if job is not None:
                    self.ledger.record_abandoned("queue-full")
            return
        except Exception as exc:  # noqa: BLE001
            _LOG.warning("exact replay of %s failed: %s", job.query_name, exc)
            self.ledger.record_abandoned("replay-failed")
            return
        finally:
            with self._lock:
                self._inflight = None
        comparison = compare_tables(job.approx, result.table)
        kind = self._sampler_kinds(query)
        self.ledger.record_audit(
            comparison, job.tenant, kind, job.rung, time.perf_counter() - t0
        )
        self.registry.counter("auditor.completed", tenant=job.tenant).inc()
        _LOG.debug(
            "audited %s (%s/%s/%s): coverage %d/%d, %d groups missed",
            job.query_name, job.tenant, kind, job.rung,
            comparison.cells_covered, comparison.cells_checked,
            comparison.groups_missed,
        )
