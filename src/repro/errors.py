"""Exception hierarchy for the Quickr reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subclasses separate user mistakes (bad queries, unknown columns)
from internal invariant violations (plan corruption).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A column or table reference could not be resolved."""


class PlanError(ReproError):
    """A logical or physical plan is malformed or violates an invariant."""


class ExpressionError(ReproError):
    """An expression is malformed or applied to incompatible operands."""


class SamplerError(ReproError):
    """A sampler was configured with invalid parameters."""


class CatalogError(ReproError):
    """A table is missing from the catalog or its statistics are stale."""


class WorkloadError(ReproError):
    """A workload generator or query suite was misconfigured."""


class ExecutionError(ReproError):
    """A query failed while executing (as opposed to while planning)."""


class TaskError(ExecutionError):
    """One partition task failed.

    Carries the partition context a raw worker traceback would lose: which
    partition, which attempt, and a short failure kind (``exception``,
    ``validation``, ``result-unpicklable``, ``pool-broken``, ``cancelled``).
    The original exception, when one exists, is attached as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        partition: int | None = None,
        attempt: int | None = None,
        kind: str = "exception",
    ):
        context = []
        if partition is not None:
            context.append(f"partition {partition}")
        if attempt is not None:
            context.append(f"attempt {attempt}")
        prefix = f"[{', '.join(context)}] " if context else ""
        super().__init__(f"{prefix}{message}")
        self.partition = partition
        self.attempt = attempt
        self.kind = kind


class TaskCancelled(ExecutionError):
    """A task attempt observed its cancellation flag and aborted early.

    Raised cooperatively (between plan operators) when a speculative
    duplicate of the same task already won; the scheduler discards the
    attempt rather than counting it as a failure.
    """


class DegradedResultError(ExecutionError):
    """A partition was permanently lost and the query could not complete.

    Raised only after every recovery path failed: retries exhausted, the
    plan does not qualify for sample-aware degradation (no uniform/universe
    sampler root), and the serial re-execution fallback itself errored."""


class GovernanceError(ExecutionError):
    """An in-flight query was stopped by its governance contract.

    Raised cooperatively at operator/task boundaries when a query's
    :class:`~repro.engine.governance.GovernanceContext` says it must no
    longer run — the client cancelled it, its deadline passed, or it blew
    its memory budget. ``reason_code`` is the short machine-readable cause
    the service puts on the wire (``client-disconnect``, ``deadline``,
    ``budget``, ``shutdown``, ...).
    """

    reason_code = "governed"

    def __init__(self, message: str, reason_code: str | None = None):
        super().__init__(message)
        if reason_code is not None:
            self.reason_code = reason_code


class QueryCancelled(GovernanceError):
    """The query's cancellation token fired (client disconnect, shutdown
    drain, explicit cancel) and execution unwound at the next cooperative
    checkpoint."""

    reason_code = "cancelled"


class DeadlineExceeded(GovernanceError):
    """The query's absolute deadline passed while it was still executing."""

    reason_code = "deadline"


class BudgetExceeded(GovernanceError):
    """The query's live intermediate state exceeded its memory budget."""

    reason_code = "budget"


class ServiceError(ReproError):
    """The query service failed at the protocol or transport layer."""


class ProtocolError(ServiceError):
    """A wire message was malformed (bad framing, missing fields, unknown
    op) — the peer's fault, answered with an error response rather than a
    dropped connection."""


class AdmissionRejected(ServiceError):
    """The admission controller refused a query — explicitly, never by
    hanging.

    ``reason`` is one of ``backpressure`` (the shared run queue is full),
    ``quota`` (the tenant is over its outstanding-query quota) or
    ``deadline`` (the remaining deadline budget cannot cover the query's
    expected runtime, so running it would only waste cluster time).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
