"""Zero-copy shared-memory transport for partition inputs and results.

The pickle transport ships whole partition tables over the process-pool
result pipe — O(data) bytes serialized, copied and deserialized per task.
This module replaces that with :class:`~repro.memory.TableRef` descriptors:
column buffers live in named ``shared_memory`` segments and only O(schema)
bytes cross the pipe.

Two directions, two ownership rules:

* **Inputs** (parent → workers): the parent writes every partition table
  into a segment *before* the pool forks, drops its materialized copies,
  and publishes refs. Workers attach read-only views on demand. The parent
  owns the segments and releases them when the run ends.
* **Results** (worker → parent): the worker writes its output table into a
  segment whose name is a *deterministic function of (run token, partition,
  attempt)* and detaches immediately; only the ref returns over the pipe.
  The parent assumes ownership on receipt. Deterministic naming is the
  crash-safety story: a worker that dies while holding a segment never
  delivers the ref, but the parent can still reap the orphan by
  reconstructing its name from the attempt ledger (:func:`sweep_results`,
  plus the pool-recycle hook in :mod:`repro.parallel.tasks`). A result
  that is an unbuilt join's matches (:class:`~repro.engine.operators.JoinParts`)
  is two tables, and ships as two segments, one per part.

Fallback matrix: a run uses shm exactly when it forks more than one worker
process and POSIX shared memory works here. Thread/inline backends share an
address space, so tables pass by reference and shm would only add copies —
they stay on the pickle path, as does every run on a host without
``/dev/shm``. An input the arena cannot encode (e.g. an object column
holding non-strings) sends the whole run back to pickle; a result it cannot
encode falls back to pickling that one payload, and the parent accepts
either form.
"""

from __future__ import annotations

import errno
import secrets
from itertools import product
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.engine.operators import JoinParts
from repro.engine.table import Table
from repro.errors import SchemaError
from repro.memory import SEGMENT_PREFIX, TableRef, reap, release
from repro.obs import log as obs_log

__all__ = [
    "new_run_token",
    "shm_available",
    "result_segment_name",
    "ship_partitions",
    "open_partition",
    "ship_result",
    "dispose_result",
    "sweep_results",
    "release_refs",
    "RunTransport",
]

_LOG = obs_log.logger("parallel.transport")


def new_run_token() -> str:
    """Short unique token naming one parallel run's segment family."""
    return secrets.token_hex(4)


def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (some sandboxes
    mount no /dev/shm)."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
        probe.close()
        # The stdlib unlink also unregisters the create-time tracker entry,
        # so the probe leaves the tracker balanced.
        probe.unlink()
        return True
    except Exception:
        return False


def _input_segment_name(token: str, partition: int, ordinal: int) -> str:
    return f"{SEGMENT_PREFIX}{token}_i{partition}_{ordinal}"


#: Tables a result payload may consist of (:class:`JoinParts` has two).
_RESULT_PARTS = len(JoinParts._fields)


def result_segment_name(token: str, partition: int, attempt: int, part: int = 0) -> str:
    """Deterministic result-segment name for one (partition, attempt) and
    one table of its payload."""
    return f"{SEGMENT_PREFIX}{token}_r{partition}a{attempt}" + (f"p{part}" if part else "")


def _members(payload) -> tuple:
    """The tables (or refs) a result payload ships as."""
    return tuple(payload) if isinstance(payload, JoinParts) else (payload,)


def _mapped(payload, fn):
    """``payload`` with ``fn(part, member)`` for each of its :func:`_members`."""
    mapped = [fn(part, member) for part, member in enumerate(_members(payload))]
    return JoinParts(*mapped) if isinstance(payload, JoinParts) else mapped[0]


def ship_partitions(
    partitions: Dict[str, List[Table]], token: str
) -> Tuple[Dict[str, List[TableRef]], List[str]]:
    """Write every partition table into shared memory.

    Returns ``(refs, segment_names)``: the refs dict mirrors the input's
    shape (worker-table name → per-partition list), and ``segment_names``
    is the parent's cleanup ledger — the parent owns every input segment
    for the whole run. Raises :class:`~repro.errors.SchemaError` (after
    cleaning up segments already written) if any column cannot be encoded;
    callers then fall back to the pickle transport wholesale.
    """
    refs: Dict[str, List[TableRef]] = {}
    names: List[str] = []
    seen: Dict[int, TableRef] = {}  # id(table) -> ref, aliases broadcasts
    try:
        for ordinal, (wname, parts) in enumerate(sorted(partitions.items())):
            shipped = []
            for pid, part in enumerate(parts):
                cached = seen.get(id(part))
                if cached is not None:
                    # Broadcast tables repeat one object per partition;
                    # ship the bytes once and alias the ref.
                    shipped.append(cached)
                    continue
                name = _input_segment_name(token, pid, ordinal)
                ref = part.to_ref(segment_name=name)
                names.append(name)
                seen[id(part)] = ref
                shipped.append(ref)
            refs[wname] = shipped
    except Exception:
        release_refs(names)
        raise
    return refs, names


def open_partition(source: Union[Table, TableRef]) -> Table:
    """Worker-side input resolution: map a ref, pass a table through."""
    if isinstance(source, TableRef):
        return Table.from_ref(source)
    return source


def ship_result(
    table: Table,
    token: str,
    partition: int,
    attempt: int,
    simulate_exhaustion: bool = False,
    part: int = 0,
):
    """Worker-side result shipping: segment in, ref out.

    Returns the :class:`TableRef` to send over the pipe, or the table
    itself when shared memory is unusable for this payload — columns the
    arena cannot encode, *or* the arena itself failing (``shm_open``
    refused, ``/dev/shm`` full → ``ENOSPC``). Either way the per-payload
    pickle fallback keeps the attempt alive: exhaustion degrades transport
    efficiency, never correctness. ``simulate_exhaustion`` is the
    fault-injection hook (:class:`~repro.parallel.faults.FaultPlan` kind
    ``"shm"``): it raises the same ``ENOSPC`` a full arena would, routed
    through the same fallback path.
    """
    name = result_segment_name(token, partition, attempt, part)
    try:
        if simulate_exhaustion:
            raise OSError(errno.ENOSPC, "injected shared-memory exhaustion")
        return table.to_ref(segment_name=name, keep_open=False)
    except (SchemaError, OSError) as exc:
        _LOG.warning(
            "partition %d attempt %d result cannot use shared memory (%s); "
            "falling back to pickle for this payload",
            partition,
            attempt,
            exc,
        )
        return table


def dispose_result(result) -> None:
    """Release the segment behind a discarded worker result.

    Discards happen on three paths — late speculative losers, results
    arriving after the task already succeeded, and validation failures —
    and on each the parent is the last owner standing. Accepts the raw
    ``(seconds, cards, payload)`` tuple in either transported form:
    a not-yet-mapped :class:`TableRef` or an already-mapped table.
    """
    if not (isinstance(result, tuple) and len(result) == 3):
        return
    for member in _members(result[2]):
        if isinstance(member, TableRef):
            release(member)
        elif isinstance(member, Table) and member.backing_ref is not None:
            release(member.backing_ref)


def sweep_results(token: str, attempts_per_partition: Iterable[int], keep: Set[str]) -> int:
    """Reap every result segment of a finished run except ``keep``.

    ``attempts_per_partition[p]`` is how many attempts partition ``p``
    launched; with deterministic names, that ledger enumerates every
    segment any worker *may* have created — including workers that died
    before delivering their ref. Reaping is idempotent, so segments that
    were already consumed-and-released, or never created, cost one failed
    ``shm_open`` each. Returns the number of orphans actually removed.
    """
    reaped = 0
    for partition, attempts in enumerate(attempts_per_partition):
        for attempt, part in product(range(attempts), range(_RESULT_PARTS)):
            name = result_segment_name(token, partition, attempt, part)
            if name in keep:
                continue
            if reap(name):
                _LOG.info(
                    "reaped orphaned result segment %s (partition %d attempt %d)",
                    name,
                    partition,
                    attempt,
                )
                reaped += 1
    return reaped


def release_refs(refs_or_names: Iterable) -> None:
    """Release a collection of refs / segment names (parent-side cleanup)."""
    for item in refs_or_names:
        release(item)


class RunTransport:
    """One parallel run's choice of transport and everything it owns.

    Shared memory is only worth it when the run actually crosses a process
    boundary (thread/inline workers share the address space and pass tables
    by reference already). The pipeline talks to this object the same way
    either way: off shm, inputs and results pass through untouched and
    :meth:`hooks` / :meth:`close` have nothing to do.
    """

    def __init__(self, pool, num_tasks: int, registry):
        self.shm = (
            pool.mode == "process"
            and pool.workers_for(num_tasks) > 1
            and shm_available()
        )
        self.token = new_run_token() if self.shm else ""
        self.registry = registry
        self.input_segments: List[str] = []
        #: Bytes that crossed the result pipe / moved through shared memory
        #: (counted on shm only: a pickled payload is not measured).
        self.pipe_bytes = 0
        self.shared_bytes = 0

    def ship_inputs(self, partitions: Dict[str, List[Table]]) -> Dict[str, list]:
        """Per-task sources for the workers: refs on shm (the caller then
        drops its materialized partitions, so the fork image carries refs,
        not data), the tables themselves otherwise."""
        if not self.shm:
            return partitions
        try:
            refs, self.input_segments = ship_partitions(partitions, self.token)
        except (SchemaError, OSError) as exc:
            # SchemaError: columns the arena cannot encode. OSError: the
            # arena itself failed (shm_open refused, /dev/shm full).
            # Either way the run survives on the pickle transport.
            _LOG.warning(
                "input partitions cannot use shared memory (%s); "
                "falling back to the pickle transport",
                exc,
            )
            self.registry.counter("transport.shm_fallbacks").inc()
            self.shm = False
            return partitions
        return refs

    def ship_task_result(self, result, task, simulate_exhaustion: bool = False):
        """Worker side: move a payload's tables into shared memory so only
        their refs cross the pipe. The (possibly fault-corrupted) tables
        ship as they are, so validation still sees exactly what the worker
        produced; anything else (partial states, injected junk) takes the
        pipe."""
        if not (self.shm and isinstance(result, tuple) and len(result) == 3):
            return result

        def ship(part, member):
            if not isinstance(member, Table):
                return member
            return ship_result(
                member, self.token, task.partition, task.attempt,
                simulate_exhaustion=simulate_exhaustion, part=part,
            )

        return (result[0], result[1], _mapped(result[2], ship))

    def hooks(self) -> dict:
        """Parent-side ``TaskRuntime.run`` hooks: map refs back into tables
        on receipt, release segments behind any result the runtime discards,
        and reap by deterministic name when a worker dies before delivering
        its ref. None off shm — the runtime then keeps its fire-and-forget
        shutdown instead of waiting on stragglers that own no segments."""
        if not self.shm:
            return {}
        return {"receive": self._receive, "dispose": dispose_result, "reap": self._reap}

    def _receive(self, result, task):
        if not (isinstance(result, tuple) and len(result) == 3):
            return result  # malformed shape; validation rejects it
        return (result[0], result[1], _mapped(result[2], self._open))

    def _open(self, part, member):
        if isinstance(member, TableRef):
            self.pipe_bytes += member.schema_bytes()
            self.shared_bytes += member.nbytes
            return Table.from_ref(member)
        if isinstance(member, Table):
            # A whole table on a run that shipped refs means the worker's
            # shm shipping fell back to pickle (unencodable columns or an
            # exhausted arena) — the attempt survived on the slow path.
            self.registry.counter("transport.shm_fallbacks").inc()
        return member

    def _reap(self, task) -> None:
        for part in range(_RESULT_PARTS):
            reap(result_segment_name(self.token, task.partition, task.attempt, part))

    def close(self, report) -> None:
        """End of run. Winning payloads were mapped into parent-side tables
        and the merge has copied their rows, so their segments can go
        (release tolerates still-live views); the sweep then reaps orphans
        of workers that died holding their result — every name the attempt
        ledger could have used. ``report`` is None when the run never got
        as far as its tasks."""
        if report is not None and self.shm:
            for outcome in report.outcomes:
                dispose_result(outcome.payload)
            sweep_results(
                self.token, [outcome.attempts for outcome in report.outcomes], keep=set()
            )
        release_refs(self.input_segments)
