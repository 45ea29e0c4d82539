"""In-flight query governance: cancellation, deadlines, memory budgets.

Admission control (:mod:`repro.service.admission`) protects the service
*before* a query starts; this module is the contract that holds while one
is running. A :class:`GovernanceContext` travels with a query from the
service front-end down through :class:`~repro.engine.executor.Executor`,
:class:`~repro.parallel.executor.ParallelExecutor` and into the physical
plan's operator loop, which polls :meth:`GovernanceContext.check`
at every cooperative checkpoint:

* between physical operators
  (:meth:`~repro.engine.physical.PhysicalPlan.execute`);
* between task launches/completions in the parallel scheduler
  (:class:`~repro.parallel.tasks.TaskRuntime`);
* inside parallel workers, via the same ``should_abort`` poll the
  speculative-loser machinery already uses.

``check`` raises a *typed* :class:`~repro.errors.GovernanceError` —
:class:`~repro.errors.QueryCancelled`, :class:`~repro.errors.DeadlineExceeded`
or :class:`~repro.errors.BudgetExceeded` — that unwinds cleanly: worker
tasks are cancelled through :attr:`TaskRuntime.abandoned
<repro.parallel.tasks.TaskRuntime.abandoned>` (the one set a run's
scheduler shares with its work functions), shared-memory
segments are reaped through the transport's dispose/reap hooks, and
partial state is discarded. The service's governor catches these and
walks the degradation ladder instead of failing the query.

Everything here is cooperative and cheap: a checkpoint is one monotonic
clock read plus two comparisons, so checkpoints can sit on every
operator boundary without measurable overhead. Deadlines are *absolute monotonic*
times — ``CLOCK_MONOTONIC`` is system-wide on Linux, so a deadline
captured in the service thread keeps meaning inside forked pool workers.
Cancellation tokens are shared objects: they propagate instantly to
thread/inline workers; fork workers hold a copy and are stopped from the
parent side instead (the scheduler observes the token and abandons their
attempts).
"""

from __future__ import annotations

import mmap
import threading
import time
from typing import Optional

from repro.errors import BudgetExceeded, DeadlineExceeded, QueryCancelled

__all__ = [
    "CancellationToken",
    "GovernanceContext",
]


class CancellationToken:
    """Thread-safe one-shot cancellation flag with a reason.

    ``cancel`` is idempotent — the first reason wins, so a client
    disconnect that races a shutdown drain reports whichever fired first.
    The token is shared by reference between the connection thread (which
    fires it), the service worker thread and any thread/inline pool
    workers (which poll it). For *fork* pool workers the flag lives in a
    one-byte anonymous ``MAP_SHARED`` mapping: the child inherits the
    mapping (not a copy), so a post-fork ``cancel`` in the parent is
    visible at the child's next operator-boundary poll — the reason string
    stays parent-side, only the boolean crosses.
    """

    __slots__ = ("_event", "_reason", "_lock", "_shared")

    def __init__(self):
        self._event = threading.Event()
        self._reason: Optional[str] = None
        self._lock = threading.Lock()
        # Anonymous mmap is MAP_SHARED on Unix: one byte, zero-initialized,
        # reclaimed by the kernel when the last mapping closes.
        self._shared = mmap.mmap(-1, 1)

    def cancel(self, reason: str = "cancelled") -> bool:
        """Fire the token; returns True if this call was the first."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = str(reason)
            try:
                self._shared[0] = 1
            except ValueError:  # mapping already closed (interpreter teardown)
                pass
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        try:
            return self._shared[0] != 0
        except ValueError:
            return False

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def __repr__(self):
        state = f"cancelled: {self._reason!r}" if self.cancelled else "live"
        return f"CancellationToken({state})"


class GovernanceContext:
    """One query's in-flight contract: cancellation + deadline + budget.

    Parameters
    ----------
    deadline_at:
        Absolute ``time.monotonic()`` instant the query must stop by;
        None = no deadline. (Absolute, not a duration: queue wait has
        already consumed part of the budget by the time execution starts.)
    memory_budget_bytes:
        Cap on the executor's *live* intermediate bytes (the frontier of
        materialized operator outputs, per execution context); None = no
        cap. Parallel workers each inherit the same cap over their own
        partition-local state.
    token:
        Shared :class:`CancellationToken`; a fresh one is created when
        omitted.

    The context also keeps a small ledger (checks performed, peak live
    bytes seen) that the service reports in ``service.governor.*``
    metrics.
    """

    __slots__ = (
        "deadline_at",
        "memory_budget_bytes",
        "token",
        "checks",
        "peak_live_bytes",
        "selection_fraction",
    )

    def __init__(
        self,
        deadline_at: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ):
        self.deadline_at = float(deadline_at) if deadline_at is not None else None
        self.memory_budget_bytes = (
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        )
        self.token = token if token is not None else CancellationToken()
        self.checks = 0
        self.peak_live_bytes = 0
        #: Weighted partition selection for this query: roughly this
        #: fraction of the partitions that survive exact pruning run, each
        #: row weighted by its partition's inverse inclusion probability
        #: (the governor's ``quickr-select`` rung sets it). The only way to
        #: ask for selection; None runs every surviving partition.
        self.selection_fraction: Optional[float] = None

    @classmethod
    def with_timeout(
        cls,
        seconds: Optional[float],
        memory_budget_bytes: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ) -> "GovernanceContext":
        """Context whose deadline is ``seconds`` from now (None = none)."""
        deadline_at = time.monotonic() + seconds if seconds is not None else None
        return cls(deadline_at, memory_budget_bytes, token)

    # -- checkpoint ----------------------------------------------------------
    def check(self, live_bytes: Optional[int] = None) -> None:
        """One cooperative checkpoint; raises the typed governance error.

        ``live_bytes`` is the caller's current materialized intermediate
        footprint (the physical executor's live slot frontier); omitted by
        callers that only enforce cancellation/deadline (the task
        scheduler).
        """
        self.checks += 1
        if self.token.cancelled:
            raise QueryCancelled(
                f"query cancelled: {self.token.reason}",
                reason_code=self.token.reason or "cancelled",
            )
        if self.deadline_at is not None:
            overshoot = time.monotonic() - self.deadline_at
            if overshoot > 0:
                raise DeadlineExceeded(
                    f"deadline exceeded by {overshoot * 1000.0:.1f} ms mid-query"
                )
        if live_bytes is not None:
            if live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = live_bytes
            if (
                self.memory_budget_bytes is not None
                and live_bytes > self.memory_budget_bytes
            ):
                raise BudgetExceeded(
                    f"live intermediate state {live_bytes} bytes exceeds the "
                    f"memory budget {self.memory_budget_bytes} bytes"
                )

    def should_abort(self) -> bool:
        """Non-raising poll for worker-side ``should_abort`` callbacks:
        True once the token fired or the deadline passed. Workers unwind
        with :class:`~repro.errors.TaskCancelled` (discarded, never
        retried); the parent-side scheduler raises the typed error."""
        if self.token.cancelled:
            return True
        return self.deadline_at is not None and time.monotonic() > self.deadline_at

    def remaining_seconds(self) -> Optional[float]:
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0

    def __repr__(self):
        parts = []
        if self.deadline_at is not None:
            remaining = self.remaining_seconds()
            parts.append(f"deadline {remaining * 1000.0:+.0f} ms" if remaining is not None else "")
        if self.memory_budget_bytes is not None:
            parts.append(f"budget {self.memory_budget_bytes} B")
        if self.token.cancelled:
            parts.append(f"cancelled ({self.token.reason})")
        return f"GovernanceContext({', '.join(p for p in parts if p) or 'unbounded'})"
