"""Compiled physical plans: compile once, execute many times.

The logical tree (:mod:`repro.algebra.logical`) is what the optimizer
reasons about; this module is what actually runs. :func:`compile_plan`
lowers a logical tree into a :class:`PhysicalPlan` — a post-order
(topologically sorted) list of :class:`PhysicalOp` entries in which every
per-run derivation has been resolved at compile time:

* each Scan *occurrence* gets its pre-order ordinal and therefore its
  lineage column name (two occurrences of one Scan object — a self-join —
  get two distinct lineage columns, where the old per-run ``scan_indices``
  walk gave up and silently disabled lineage);
* each node gets its stable :data:`~repro.algebra.addressing.NodeAddress`,
  which keys cardinalities, overrides and per-operator metrics from here on
  (no more ``id(node)`` maps);
* sampler specs are validated to be physical (``apply``-able) so a logical
  plan fails at compile time with a clear error instead of mid-execution;
* each node gets the output columns something above it reads
  (:func:`required_columns`): scans project to them, joins gather only
  them, projects evaluate only them — the logical tree, and with it every
  fingerprint, address and cardinality, is untouched. Lineage is live the
  same way: a scan attaches it only when a sampler above reads it or the
  plan's consumer asked for it;
* aggregate estimation annotations (``compute_ci`` etc.) are looked up
  once, and so is the scale of each sum over a declared decimal column.

Execution is an iterative loop over the operator list — no recursion, so
plan depth is bounded by memory rather than the interpreter stack — and
records per-operator rows-in/rows-out and wall time. Because the list is
post-order, each subtree is a contiguous range ending at its root, which
makes override skipping (used by the parallel executor to splice merged
partition results into the upper plan) a range mask rather than a tree
walk.

:class:`PlanCache` is the fingerprint-keyed LRU that makes the executor a
compile-once/run-many service for repeated queries.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.algebra.addressing import NodeAddress, format_address, plan_fingerprint
from repro.algebra.logical import (
    Aggregate,
    Join,
    Limit,
    LogicalNode,
    OrderBy,
    Project,
    SamplerNode,
    Scan,
    Select,
    UnionAll,
)
from repro.engine import operators
from repro.engine.aggregate import Estimation
from repro.engine.operators import JoinedRows
from repro.engine.table import ROWID_PREFIX, Database, Table, rowid_column_name
from repro.errors import PlanError, TaskCancelled

__all__ = [
    "OperatorMetrics",
    "PhysicalOp",
    "PhysicalPlan",
    "PlanCache",
    "compile_plan",
    "liveness",
    "required_columns",
]

#: Opcodes that pass their input's columns through and read some of their
#: own: what only they read is shed from their output (``PhysicalOp.drop``).
_PASS_THROUGH = ("select", "sampler", "orderby")


@dataclass(frozen=True)
class OperatorMetrics:
    """Measured per-operator profile from one execution."""

    address: NodeAddress
    description: str
    rows_in: int
    rows_out: int
    seconds: float
    #: Samplers only: accuracy telemetry — kind, target probability,
    #: effective pass rate and output Horvitz-Thompson weight mass.
    sampler: Optional[dict] = None
    #: How many columns of the materialised output are dictionary-coded.
    coded: int = 0

    def summary(self) -> dict:
        out = {
            "address": format_address(self.address),
            "op": self.description,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
        }
        if self.sampler is not None:
            out["sampler"] = dict(self.sampler)
        if self.coded:
            out["coded"] = self.coded
        return out

    #: Every operator runs once over its whole input. Kept as a constant,
    #: not a field, only because ``benchmarks/perf/run.py`` sums it into
    #: its ``op.morsels`` ledger row.
    morsels = 0


class PhysicalOp(NamedTuple):
    """One entry of the compiled operator pipeline (immutable; a named
    tuple because a plan builds one per node on every cold compile)."""

    #: Position in the post-order pipeline (execution order).
    index: int
    #: Stable structural address of the originating logical node.
    address: NodeAddress
    node: LogicalNode
    #: Dispatch tag; one of scan/select/project/sampler/join/aggregate/
    #: orderby/limit/union.
    opcode: str
    #: Pipeline slots holding this operator's direct inputs, in child order.
    child_slots: Tuple[int, ...]
    #: First pipeline index of this operator's subtree. Post-order puts a
    #: subtree at the contiguous range [subtree_start, index].
    subtree_start: int
    #: Scans only: lineage column to attach (None when lineage is disabled
    #: or nothing reads this scan's, see :func:`liveness`).
    lineage_column: Optional[str] = None
    #: Aggregates only: estimation annotations resolved at compile time.
    estimation: Optional[Estimation] = None
    #: Data columns of the node's output that something above it reads
    #: (:func:`required_columns`), in the node's output order — exactly the
    #: data columns this operator's output table carries.
    columns: Tuple[str, ...] = ()
    #: Columns shed from the output because nothing above reads them: input
    #: columns only a select, sampler or orderby itself read, and outputs of
    #: an aggregate (which is computed whole).
    drop: Tuple[str, ...] = ()

    def describe(self) -> str:
        return repr(self.node)


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable, reusable compilation of one logical plan.

    A compiled plan holds no run state: :meth:`execute` keeps it all in a
    per-call :class:`_RunState`, so one cached instance can serve many runs
    (and many threads).
    """

    logical: LogicalNode
    fingerprint: str
    ops: Tuple[PhysicalOp, ...]
    address_to_index: Dict[NodeAddress, int]
    #: Scan occurrence address -> pre-order scan ordinal.
    scan_ordinals: Dict[NodeAddress, int]

    @property
    def num_operators(self) -> int:
        return len(self.ops)

    def execute(
        self,
        database: Database,
        overrides: Optional[Dict[NodeAddress, Table]] = None,
        record_metrics: bool = False,
        should_abort: Optional[Callable[[], bool]] = None,
        tracer=None,
        governance=None,
    ) -> Tuple[Union[Table, JoinedRows], Dict[NodeAddress, int], Tuple[OperatorMetrics, ...]]:
        """Run the pipeline against ``database``.

        ``overrides`` maps a node address to a pre-computed table: that
        operator's subtree is skipped and the table used as its output (the
        parallel executor splices merged partition results in this way).
        ``should_abort`` is polled between operators;
        when it turns true the run raises :class:`TaskCancelled` — the
        cooperative-cancellation hook the task scheduler uses to stop
        speculative losers without waiting out the whole pipeline.
        ``governance`` (a :class:`~repro.engine.governance.GovernanceContext`)
        is checked at the same boundaries, with the executor's live
        intermediate byte count: a fired cancellation token, passed
        deadline or blown memory budget raises the matching typed
        :class:`~repro.errors.GovernanceError`, unwinding the run with all
        partial state discarded.
        ``tracer`` (a :class:`repro.obs.trace.Tracer`) records one span per
        executed operator, carrying its address, rows-in/rows-out and — for
        samplers — the effective rate vs. target ``p`` and output weight
        mass.
        Returns the raw root output (lineage intact; an inner join that
        fanned out is left lazy, a :class:`~repro.engine.operators.JoinedRows`
        whose ``built()`` is the table, as every ``Table``'s is),
        per-address output cardinalities, and per-operator metrics (empty
        unless requested).
        """
        ops = self.ops
        run = _RunState(self, overrides, record_metrics, should_abort, tracer, governance)
        for op in ops:
            if run.skipped[op.index]:
                continue
            run.checkpoint(op)
            self._execute_op(op, run, database)
        result = run.slots[len(ops) - 1]
        assert result is not None
        return result, run.cardinalities, tuple(run.metrics)

    def _execute_op(self, op: PhysicalOp, run: "_RunState", database: Database) -> None:
        """Run one operator over its whole input (or splice its override)."""
        started = time.perf_counter() if run.observe else 0.0
        span = _begin_op_span(run.tracer, op) if run.tracer is not None else None
        overridden = bool(run.overrides) and op.address in run.overrides
        if overridden:
            table = run.overrides[op.address]
            rows_in = table.num_rows
        else:
            inputs = [run.slots[slot] for slot in op.child_slots]
            if op.opcode == "scan":
                rows_in = database.table(op.node.table).num_rows
            else:
                rows_in = sum(t.num_rows for t in inputs)
            table = self._dispatch(op, inputs, database)
        # Each slot feeds exactly one parent; release inputs eagerly so
        # peak memory tracks the live frontier, not the whole plan.
        for slot in op.child_slots:
            run.release(slot)
        run.store(op.index, table)
        sampler_stats, seconds = None, 0.0
        if run.observe:
            if op.opcode == "sampler" and not overridden:
                sampler_stats = _sampler_stats(op.node.spec, rows_in, table)
            seconds = time.perf_counter() - started
        run.record(op, rows_in, table.num_rows, seconds, span=span, sampler=sampler_stats)

    # -- operator dispatch ----------------------------------------------------
    def _dispatch(
        self, op: PhysicalOp, inputs: List[Union[Table, JoinedRows]], database: Database
    ) -> Union[Table, JoinedRows]:
        """One operator's output. A join left lazy is read as it is by the
        aggregate above it and as the probe input of a join; every other
        reader builds it."""
        node = op.node
        if op.opcode == "join":
            return operators.execute_join(
                inputs[0], inputs[1].built(), node.left_keys, node.right_keys, node.how,
                op.columns,
            )
        if op.opcode != "aggregate":
            inputs = [table.built() for table in inputs]
        if op.opcode == "scan":
            out = database.table(node.table).project(op.columns)
            if op.lineage_column is not None and not out.has_lineage():
                out = out.with_columns(
                    {op.lineage_column: np.arange(out.num_rows, dtype=np.int64)}
                )
            return out
        if op.opcode == "select":
            return operators.execute_select(inputs[0], node.predicate, op.drop)
        if op.opcode == "project":
            return operators.execute_project(
                inputs[0], {name: node.mapping[name] for name in op.columns}
            )
        if op.opcode == "limit":
            return operators.execute_limit(inputs[0], node.n)
        if op.opcode == "union":
            return operators.execute_union_all(inputs)
        if op.opcode == "sampler":
            out = node.spec.apply(inputs[0])
        elif op.opcode == "aggregate":
            out = operators.execute_aggregate(
                inputs[0], node.group_by, node.aggs, *op.estimation
            )
        elif op.opcode == "orderby":
            out = operators.execute_orderby(inputs[0], node.keys, node.descending)
        else:
            raise PlanError(f"compiled plan has unknown opcode {op.opcode!r}")
        return out.drop_columns(op.drop) if op.drop else out


class _RunState:
    """Everything one :meth:`PhysicalPlan.execute` call mutates.

    Owns the slots, the override mask, the cardinalities and metrics, and
    — only when a governance context is present — the live-frontier memory
    ledger (bytes of each materialized slot), which every operator
    checkpoints, accounts and reports through.
    """

    def __init__(self, plan, overrides, record_metrics, should_abort, tracer, governance):
        ops = plan.ops
        self.overrides = overrides
        self.skipped = bytearray(len(ops))
        for address in overrides or ():
            root = plan.address_to_index.get(address)
            if root is None:
                raise PlanError(
                    f"override address {format_address(address)} is not in this plan"
                )
            for i in range(ops[root].subtree_start, root):
                self.skipped[i] = 1
        self.slots: List[Optional[Table]] = [None] * len(ops)
        self.cardinalities: Dict[NodeAddress, int] = {}
        self.metrics: List[OperatorMetrics] = []
        self.record_metrics = record_metrics
        self.should_abort = should_abort
        self.tracer = tracer
        self.observe = record_metrics or tracer is not None
        self.governance = governance
        self.slot_bytes: List[int] = [0] * len(ops) if governance is not None else []
        self.live_bytes = 0

    def checkpoint(self, op: PhysicalOp) -> None:
        """The cooperative boundary before ``op``: poll ``should_abort``,
        then check the contract against the live bytes."""
        if self.should_abort is not None and self.should_abort():
            raise TaskCancelled(
                f"execution aborted before operator {format_address(op.address)}"
            )
        if self.governance is not None:
            self.governance.check(self.live_bytes)

    def release(self, slot: int) -> None:
        self.slots[slot] = None
        if self.governance is not None:
            self.live_bytes -= self.slot_bytes[slot]
            self.slot_bytes[slot] = 0

    def store(self, slot: int, table: Table) -> None:
        """Materialize ``table`` in ``slot``; a governed run pays for it at
        once — a blown budget raises here, not an operator later."""
        self.slots[slot] = table
        if self.governance is not None:
            produced = table.estimated_bytes()
            self.slot_bytes[slot] = produced
            self.live_bytes += produced
            self.governance.check(self.live_bytes)

    def record(self, op, rows_in, rows_out, seconds, span=None, sampler=None):
        """What ``op`` did: its cardinality always; its ``op.<opcode>`` span
        and :class:`OperatorMetrics` when someone is watching."""
        self.cardinalities[op.address] = rows_out
        if not self.observe:
            return
        out = self.slots[op.index]
        coded = len(out.dictionaries())
        if self.tracer is not None:
            # Bytes as a governed run is charged them: 4 a row per code.
            attrs = {
                "rows_in": rows_in, "rows_out": rows_out,
                "coded": coded, "bytes": out.estimated_bytes(),
            }
            if self.overrides and op.address in self.overrides:
                attrs["override"] = True
            if isinstance(out, JoinedRows):  # left lazy: the rows it holds
                attrs["probe_rows"] = out.num_probe_rows
            if sampler is not None:
                attrs.update(sampler)
            self.tracer.end(span, **attrs)
        if self.record_metrics:
            self.metrics.append(
                OperatorMetrics(
                    address=op.address,
                    description=op.describe(),
                    rows_in=rows_in,
                    rows_out=rows_out,
                    seconds=seconds,
                    sampler=sampler,
                    coded=coded,
                )
            )


def _begin_op_span(tracer, op: PhysicalOp):
    """Open one operator's ``op.<opcode>`` span: where it sits in the plan
    and how many data columns its output carries."""
    return tracer.begin(
        f"op.{op.opcode}", address=format_address(op.address), columns=len(op.columns)
    )


def _sampler_stats(spec, rows_in: int, out: Table) -> dict:
    """Accuracy telemetry of one sampler execution.

    ``weight_mass`` is the sum of output Horvitz-Thompson weights — an
    unbiased estimate of the sampler's input cardinality, so comparing it
    to ``rows_in`` shows the estimator's realized accuracy at this node.
    """
    target = getattr(spec, "p", None)
    if target is None:
        target = spec.expected_fraction()
    return {
        "kind": spec.kind,
        "target_p": float(target),
        "effective_rate": (out.num_rows / rows_in) if rows_in > 0 else 0.0,
        "weight_mass": float(out.weights().sum())
        if out.has_weights()
        else float(out.num_rows),
    }


_OPCODES = (
    (Scan, "scan"),
    (Select, "select"),
    (Project, "project"),
    (SamplerNode, "sampler"),
    (Join, "join"),
    (Aggregate, "aggregate"),
    (OrderBy, "orderby"),
    (Limit, "limit"),
    (UnionAll, "union"),
)


_OPCODE_OF_TYPE = dict(_OPCODES)


def _opcode_of(node: LogicalNode) -> str:
    opcode = _OPCODE_OF_TYPE.get(type(node))
    if opcode is not None:
        return opcode
    for klass, opcode in _OPCODES:  # a subclass, e.g. WeightedAggregate
        if isinstance(node, klass):
            return opcode
    raise PlanError(f"executor cannot handle node {type(node).__name__}")


def _child_requirements(node: LogicalNode, need: set) -> List[set]:
    """What ``node`` needs of each child's output to produce ``need`` of its
    own: the columns it passes through plus the columns it reads itself."""
    if isinstance(node, Select):
        return [need | node.predicate.columns()]
    if isinstance(node, Project):
        return [set().union(*(node.mapping[name].columns() for name in need))]
    if isinstance(node, SamplerNode):
        if not hasattr(node.spec, "apply"):
            raise PlanError(
                f"sampler spec {node.spec!r} is logical; run ASALQA costing "
                "to obtain a physical plan"
            )
        return [need | set(node.spec.input_columns())]
    if isinstance(node, Join):
        left, right = set(node.left_keys), set(node.right_keys)
        left_outputs = set(node.left.output_columns())
        for name in need:
            (left if name in left_outputs else right).add(name)
        return [left, right]
    if isinstance(node, Aggregate):
        reads = set(node.group_by).union(*(agg.columns() for agg in node.aggs))
        universe = Estimation.of(node).universe_variance
        if universe is not None:
            # The variance estimator groups on whichever of these the input
            # carries; keep carrying the ones it could.
            reads |= set(universe[0]) & set(node.child.output_columns())
        return [reads]
    if isinstance(node, OrderBy):
        return [need | set(node.keys)]
    return [need] * len(node.children)  # Limit, UnionAll; Scan has no child


def required_columns(
    plan: LogicalNode, root_required: Optional[Iterable[str]] = None
) -> Dict[NodeAddress, Tuple[str, ...]]:
    """The data-column half of :func:`liveness`."""
    return liveness(plan, root_required)[0]


def liveness(
    plan: LogicalNode, root_required: Optional[Iterable[str]] = None
) -> Tuple[Dict[NodeAddress, Tuple[str, ...]], frozenset]:
    """Per node address, the output columns something above the node reads;
    and the addresses of the scans whose lineage something reads.

    One top-down liveness pass over the logical tree, which it leaves
    untouched: narrowing ``Scan`` nodes instead would change plan keys, and
    with them universe-sampler families, fingerprints and cached plans.
    ``root_required`` is what the consumer of the whole plan reads (default:
    every output column). Each entry lists the columns in the node's own
    output order. Two rules are not liveness: an aggregate reads all its
    inputs whatever is read of it (it is computed whole), and a node nobody
    reads a column of still keeps its first, so a table always has a column
    to hold its row count (``COUNT(*)``). The weight column is not listed;
    it always rides along.

    Lineage is not listed either, but is live or dead like data: read (all
    of it that the reader's input carries) by a sampler whose spec says so,
    and by the plan's consumer when ``root_required`` names a lineage
    column (the parallel row merge orders rows by it, DESIGN §7); cut where
    run time cuts it, at an aggregate and a union. A scan attaches its
    lineage column only when live.
    """
    required: Dict[NodeAddress, Tuple[str, ...]] = {}
    attaching = set()
    root = set(plan.output_columns() if root_required is None else root_required)
    reserved = {c for c in root if c.startswith(ROWID_PREFIX)}
    stack: List[Tuple[LogicalNode, NodeAddress, set, bool]] = [
        (plan, (), root - reserved, bool(reserved))
    ]
    while stack:
        node, address, need, lineage = stack.pop()
        if isinstance(node, SamplerNode):
            lineage = lineage or getattr(node.spec, "reads_lineage", False)
        elif isinstance(node, (Aggregate, UnionAll)):
            lineage = False
        elif isinstance(node, Scan) and lineage:
            attaching.add(address)
        outputs = node.output_columns()
        if not need:
            need = {outputs[0]}
        kept = required[address] = tuple(c for c in outputs if c in need)
        if len(kept) != len(need):
            raise PlanError(
                f"{node!r} at {format_address(address)} is asked for columns "
                f"{sorted(need - set(outputs))} it does not produce"
            )
        if node.children:
            for i, child_need in enumerate(_child_requirements(node, need)):
                stack.append((node.children[i], address + (i,), child_need, lineage))
    return required, frozenset(attaching)


def compile_plan(
    plan: LogicalNode,
    database: Database,
    fingerprint: Optional[str] = None,
    root_required: Optional[Iterable[str]] = None,
) -> PhysicalPlan:
    """Lower a logical tree over ``database`` into an executable
    :class:`PhysicalPlan`.

    ``database`` declares the decimal columns whose sums the plan's
    aggregates keep in whole units
    (:func:`~repro.engine.aggregate.decimal_scales`). ``root_required``
    narrows what the plan's consumer reads of its output (see
    :func:`required_columns`); a partition task's plan is compiled with
    what the rest of the query reads of the split.
    Raises :class:`PlanError` if the plan carries logical (uncosted)
    sampler state or an unknown operator — compile-time, not mid-run.
    """
    required, attaching = liveness(plan, root_required)
    ops: List[PhysicalOp] = []
    address_to_index: Dict[NodeAddress, int] = {}
    scan_ordinals: Dict[NodeAddress, int] = {}

    # Iterative post-order: a node with children is visited twice — once to
    # push them (right to left, above its own second visit), once to be
    # emitted, when the slots of its children top the ``emitted`` stack.
    emitted: List[int] = []
    stack: List[Tuple[LogicalNode, NodeAddress, int]] = [(plan, (), -1)]
    while stack:
        node, address, subtree_start = stack.pop()
        arity = len(node.children)
        if subtree_start < 0 and arity:
            stack.append((node, address, len(ops)))
            for i in range(arity - 1, -1, -1):
                stack.append((node.children[i], address + (i,), -1))
            continue
        opcode = _opcode_of(node)
        lineage_column = None
        estimation = None
        columns = required[address]
        carried: Tuple[str, ...] = ()
        if opcode == "scan":
            ordinal = len(scan_ordinals)
            scan_ordinals[address] = ordinal
            if address in attaching:
                lineage_column = rowid_column_name(ordinal)
        elif opcode == "aggregate":
            estimation = Estimation.of(node, database)
            carried = node.output_columns()
        elif opcode in _PASS_THROUGH:
            carried = required[address + (0,)]
        index = len(ops)
        ops.append(
            PhysicalOp(
                index=index,
                address=address,
                node=node,
                opcode=opcode,
                child_slots=tuple(emitted[len(emitted) - arity:]),
                subtree_start=index if subtree_start < 0 else subtree_start,
                lineage_column=lineage_column,
                estimation=estimation,
                columns=columns,
                drop=tuple(c for c in carried if c not in columns) if carried else (),
            )
        )
        del emitted[len(emitted) - arity:]
        emitted.append(index)
        address_to_index[address] = index

    return PhysicalPlan(
        logical=plan,
        fingerprint=fingerprint if fingerprint is not None else plan_fingerprint(plan),
        ops=tuple(ops),
        address_to_index=address_to_index,
        scan_ordinals=scan_ordinals,
    )


@dataclass
class PlanCache:
    """Fingerprint-keyed LRU cache of compiled plans.

    ``capacity=0`` disables caching (every lookup misses). It counts
    nothing: the executor counts its traffic into the metrics registry
    where it compiles. Keys are any hashable and values opaque, so the
    planner memoises its (kind, fingerprint)-keyed planning results in one
    of these too.

    Thread-safe: the query service shares one cache across every session's
    worker thread, and an LRU is mutate-on-read (``move_to_end``), so *all*
    access — including lookups — takes the cache lock. Cached values are
    immutable, so returning one outside the lock is safe.
    """

    capacity: int = 128
    _entries: "OrderedDict[Hashable, Any]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def get(self, fingerprint: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
            return entry

    def put(self, fingerprint: Hashable, physical: Any) -> int:
        """Insert (or refresh) an entry; returns how many it evicted."""
        if self.capacity <= 0:
            return 0
        evicted = 0
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
            self._entries[fingerprint] = physical
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        return {"size": len(self), "capacity": self.capacity}
