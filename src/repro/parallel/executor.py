"""Partition-parallel plan execution (the paper's deployment mode).

Quickr's samplers are built to the operating requirements of Section 4.1 —
one pass, bounded memory, partitionable — precisely so that a sampled plan
can run as ordinary partition-parallel vertices in a cluster. This module
reproduces that execution mode in-process as one staged pipeline over a
per-query :class:`_QueryContext` (``ParallelExecutor._run_query`` is the
whole of it; each stage is one small method):

``analyse``
    :func:`repro.parallel.plan.analyze_plan` picks the precursor subtree
    and a partitioning strategy, or says why the plan must run serially.
``prune/select``
    the partition catalog proves partitions irrelevant and, on request,
    draws a weighted subset of the rest (:mod:`repro.optimizer.pruning`);
    the partitions that remain become the run's tasks.
``place``
    each base table behind a precursor scan is partitioned (or broadcast)
    with its global lineage attached, every task's worker plan is compiled,
    and the inputs are handed to the run's transport (shared memory when
    the run forks processes — :class:`repro.parallel.transport.RunTransport`).
``run tasks``
    every partition becomes a task of the fault-tolerant
    :class:`~repro.parallel.tasks.TaskRuntime` — failures are retried with
    backoff, stragglers get speculative duplicates, results are validated
    before acceptance; faults can be injected through a
    :class:`~repro.parallel.faults.FaultPlan`, and the query's governance
    contract stops the run at task boundaries.
``recover``
    decides what lost partitions mean: a governed abort is salvaged or
    raised, a loss the sample algebra can absorb *degrades* the answer, any
    other loss sends the query to one serial re-execution.
``merge``
    partition outputs are merged — by exact row order (bit-identical to
    serial) or by partial-aggregate states — with Horvitz-Thompson weights
    re-scaled for partition selection and for lost partitions.
``finish``
    the engine runs the remainder of the plan over the merged result,
    selection CIs are inflated, and the stitched cardinalities are costed.
``record``
    the query's :class:`~repro.engine.metrics.ParallelMetrics` is written,
    once, into the metrics registry — for a parallel success, a serial
    fallback and a serial re-execution alike.

Every stage that executes a plan calls the owning engine's compile→run
primitive (:meth:`repro.engine.executor.PlanRunner.run`).

Degradation: for round-robin partitioned plans rooted in uniform/universe
samplers the surviving partitions are themselves a valid sample (Rong et
al.), so their weights are re-scaled by ``D / survivors`` and the query
returns a :class:`~repro.engine.executor.PartialResult` with the achieved
coverage and correspondingly widened confidence intervals. Everything else
falls back to one serial re-execution; only if that also fails does the
query raise :class:`~repro.errors.DegradedResultError`.

Per-operator cardinalities are stitched back together keyed by stable
structural addresses (worker sums below the split, the upper-plan run above
it) — addresses survive pickling across process boundaries, where object
identities would not — so the cluster cost model sees the same plan profile
a serial run would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.algebra.addressing import NodeAddress
from repro.algebra.builder import Query
from repro.algebra.logical import Join, LogicalNode
from repro.engine.aggregate import (
    Estimation,
    PartialAggregate,
    finalize_partial,
    merge_partials,
    partial_aggregate,
)
from repro.engine.costmodel import cost_plan, prune_cost_credit
from repro.engine.executor import ExecutionResult, PartialResult, PlanRun, PlanRunner
from repro.engine.metrics import ClusterConfig, ParallelMetrics, modeled_speedup
from repro.engine.operators import MATCH_COLUMN, JoinedRows, JoinParts
from repro.engine.partitions import HASH, Partitioner
from repro.engine.physical import PhysicalPlan, liveness, plan_fingerprint
from repro.engine.table import WEIGHT_COLUMN, Database, Table, rowid_column_name
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    DegradedResultError,
    PlanError,
    TaskError,
)
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.parallel.faults import FaultPlan, corrupt_table
from repro.parallel.merge import inflate_selection_cis, merge_matches, merge_rows
from repro.parallel.plan import (
    DEFAULT_MIN_PARTITION_ROWS,
    PARTITION_HASH_SEED,
    PlanAnalysis,
    analyze_plan,
    build_worker_plan,
    worker_table_name,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import RetryPolicy, TaskReport, TaskRuntime, TaskSpec
from repro.parallel import transport as shm_transport
from repro.stats.derivation import reweight_surviving_partitions

__all__ = ["ParallelOptions", "ParallelExecutor"]

_LOG = obs_log.logger("parallel.executor")

_MERGE_MODES = ("rows", "partial")

#: Sampler kinds whose surviving partitions remain a valid sample under
#: round-robin partition loss (weights re-scale; estimates stay unbiased).
_DEGRADABLE_KINDS = frozenset({"uniform", "universe"})

#: Sampler kinds that neither enable nor forbid degradation (no weights,
#: no per-value state to lose).
_NEUTRAL_KINDS = frozenset({"passthrough"})


@dataclass
class ParallelOptions:
    """Knobs of the parallel executor.

    ``merge="rows"`` ships sampled rows and reproduces the serial answer
    bit-for-bit; ``merge="partial"`` runs classic two-phase aggregation
    (identical estimates up to floating-point reassociation, group order by
    first appearance across partitions).

    ``retry`` configures the fault-tolerant task runtime (attempts,
    backoff, speculation); ``fault_plan`` injects deliberate faults (chaos
    testing). A permanently lost partition of a plan whose survivors are
    still a valid sample degrades the answer; any other loss re-executes
    the query serially.

    Partition tables move between parent and workers as shared-memory
    :class:`~repro.memory.TableRef` descriptors whenever the run forks more
    than one worker process, and by reference (threads) or pickle
    otherwise (:class:`~repro.parallel.transport.RunTransport`).

    ``prune`` consults the database's partition catalog (when one is
    attached) to skip partitions that provably cannot affect the answer;
    it is a pure optimization — databases without a catalog are untouched.
    Weighted partition selection is asked for per query, through
    ``GovernanceContext.selection_fraction``.
    """

    pool: str = "thread"
    merge: str = "rows"
    min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS
    max_workers: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    task_seed: int = 0
    prune: bool = True

    def __post_init__(self):
        if self.merge not in _MERGE_MODES:
            raise PlanError(f"unknown merge mode {self.merge!r}; expected one of {_MERGE_MODES}")


@dataclass
class _QueryContext:
    """One query's trip through the pipeline: each stage reads what earlier
    stages wrote and fills in its own block."""

    plan: LogicalNode
    governance: Any
    start: float
    #: Engine seconds this query spent outside its tasks and outside a
    #: serial (re-)execution: worker-plan compiles, pruning sub-queries,
    #: the upper plan.
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    # -- analyse
    analysis: Optional[PlanAnalysis] = None
    merge_mode: str = "rows"
    #: ``analysis.strategy``, re-labelled when pruning changes what a lost
    #: partition means (it gates the degradation rule).
    strategy: str = "serial-fallback"
    #: Submitted-plan address -> output columns the plan above reads
    #: (:func:`~repro.engine.physical.required_columns`): what the scans
    #: ship and what a payload carries.
    required: Dict[NodeAddress, tuple] = field(default_factory=dict)
    #: What a worker's plan is compiled for: the data columns read of the
    #: split and, when rows are merged, the lineage that reaches it.
    payload_columns: tuple = ()
    #: Whether the split is an inner join whose probe side holds a
    #: partitioned scan: then only the probe side's lineage reaches the
    #: payload, and a worker whose join fanned out ships its matches.
    matched: bool = False
    # -- prune/select
    prune: Any = None  # Optional[ScanPrunePlan]
    #: Partition ordinals that become tasks, in task order.
    keep: Sequence[int] = ()
    # -- place
    #: Scan columns this query was placed on, and how many of them the
    #: partition store had to materialise for it (the rest were resident).
    placed_columns: int = 0
    materialised_columns: int = 0
    #: Bytes the store held once this query was placed.
    resident_bytes: int = 0
    worker_plans: List[PhysicalPlan] = field(default_factory=list)
    #: Worker table name -> per-task input (a table, or its shm ref).
    sources: Dict[str, list] = field(default_factory=dict)
    runtime: Optional[TaskRuntime] = None
    transport: Optional[shm_transport.RunTransport] = None
    # -- run tasks
    report: Optional[TaskReport] = None
    # -- merge
    #: Surviving rows-mode payloads and their selection inclusion
    #: probabilities (CI inflation needs both after the upper plan ran).
    payloads: list = field(default_factory=list)
    selection_pis: List[float] = field(default_factory=list)
    reweight_factor: float = 1.0
    cardinalities: Dict[NodeAddress, int] = field(default_factory=dict)
    #: Address -> table the upper plan splices in instead of running below.
    overrides: Dict[NodeAddress, Table] = field(default_factory=dict)

    @property
    def two_phase(self) -> bool:
        return self.merge_mode == "partial"

    @property
    def selecting(self) -> bool:
        return self.prune is not None and self.prune.selection_active


class ParallelExecutor:
    """Runs plans partition-parallel over a :class:`Database`.

    ``engine`` is the :class:`~repro.engine.executor.Executor` this one
    works for (which builds one per query rather than keep a back-pointing
    reference cycle): every stage borrows its compile→run primitive, plan
    cache, cost-model config and registry, and tasks run on its ``pool``.
    Built directly (no owner), it runs on a bare
    :class:`~repro.engine.executor.PlanRunner` and a pool of its own.
    """

    def __init__(
        self,
        database: Database,
        config: Optional[ClusterConfig] = None,
        parallelism: int = 2,
        options: Optional[ParallelOptions] = None,
        engine: Optional[PlanRunner] = None,
        pool: Optional[WorkerPool] = None,
    ):
        if parallelism < 1:
            raise PlanError(f"parallelism must be positive, got {parallelism}")
        self.engine = engine if engine is not None else PlanRunner(database, config)
        self.database = self.engine.database
        self.config = self.engine.config
        self.registry = self.engine.registry
        self.parallelism = int(parallelism)
        self.options = options or ParallelOptions()
        #: The owner's worker pool (its threads outlive this query), or one
        #: of this executor's own.
        self.pool = pool or WorkerPool(self.options.pool, self.options.max_workers)

    def execute(self, query, governance=None) -> ExecutionResult:
        plan = query.plan if isinstance(query, Query) else query
        ctx = _QueryContext(plan, governance, perf_counter())
        tracer = obs_trace.current_tracer()
        if tracer is None:
            return self._run_query(ctx)
        with tracer.span(
            "parallel.query",
            parallelism=self.parallelism,
            fingerprint=plan_fingerprint(plan)[:12],
        ) as span:
            result = self._run_query(ctx)
            metrics = result.parallel
            span.attributes.update(
                strategy=metrics.strategy,
                pool=metrics.pool_mode,
                tasks=metrics.tasks,
                retries=metrics.task_retries,
                degraded=metrics.degraded,
            )
            if ctx.analysis is not None:
                # Data columns each partition payload carries up from the split.
                span.attributes["columns"] = len(ctx.required[ctx.analysis.split_address])
                # Scan columns served resident / materialised by the store.
                span.attributes["placed"] = (
                    f"{ctx.placed_columns - ctx.materialised_columns}/{ctx.materialised_columns}"
                )
            if metrics.pruning:
                span.attributes.update(
                    pruned=metrics.pruning["partitions_pruned"],
                    prune_token=metrics.pruning["token"],
                )
        return result

    # -- the pipeline -----------------------------------------------------------
    def _run_query(self, ctx: _QueryContext) -> ExecutionResult:
        try:
            serial_reason = self._analyse(ctx)
            if serial_reason is None:
                self._select_partitions(ctx)
                self._place(ctx)
                self._run_tasks(ctx)
                serial_reason = self._recover(ctx)
            if serial_reason is None:
                with obs_trace.maybe_span("parallel.merge", mode=ctx.merge_mode) as span:
                    self._merge(ctx)
                    if span is not None:
                        # What the merge hands the upper plan, and the rows
                        # it ordered to do so.
                        (merged,) = ctx.overrides.values()
                        matched = isinstance(merged, JoinedRows)
                        span.attributes.update(
                            rows=merged.num_rows,
                            probe_rows=merged.num_probe_rows if matched else merged.num_rows,
                            bytes=merged.parts_bytes() if matched else merged.estimated_bytes(),
                        )
                result = self._finish(ctx)
            else:
                result = self._run_serially(ctx, serial_reason)
        finally:
            if ctx.transport is not None:
                ctx.transport.close(ctx.report)
        self._record(ctx, result.parallel)
        return result

    def _engine_run(self, ctx: _QueryContext, plan, governance, **kwargs) -> PlanRun:
        """The engine primitive, with its seconds charged to this query."""
        run = self.engine.run(plan, governance=governance, **kwargs)
        ctx.compile_seconds += run.compile_seconds
        ctx.execute_seconds += run.execute_seconds
        return run

    def _analyse(self, ctx: _QueryContext) -> Optional[str]:
        """Find the split and the strategy; returns why the plan must run
        serially instead, if it must."""
        if self.parallelism == 1:
            return "parallelism=1"
        analysis = analyze_plan(
            ctx.plan, self.database, min_partition_rows=self.options.min_partition_rows
        )
        if not analysis.ok:
            return analysis.reason
        ctx.analysis = analysis
        ctx.strategy = analysis.strategy
        ctx.required, _ = liveness(ctx.plan)
        # Nothing to two-phase without an aggregate; ship rows instead.
        ctx.merge_mode = self.options.merge if analysis.aggregate is not None else "rows"
        ctx.payload_columns = ctx.required[analysis.split_address]
        if not ctx.two_phase:
            # Every scan's lineage reaches the split and orders the merge,
            # but an inner join's probe rows order its output when each
            # lives in one partition beside all its matches: its probe side
            # holds a partitioned scan, and its build side none or the one
            # hash co-partitioned with it (no strategy partitions more).
            depth, split = len(analysis.split_address), analysis.split
            ctx.matched = isinstance(split, Join) and split.how == "inner" and any(
                scan.address[depth] == 0 for scan in analysis.scans if scan.mode != "broadcast"
            )
            ctx.payload_columns += tuple(
                sorted(
                    rowid_column_name(ordinal)
                    for address, ordinal in analysis.split_scan_ordinals.items()
                    if not ctx.matched or address[0] == 0
                )
            )
        return None

    def _select_partitions(self, ctx: _QueryContext) -> None:
        """Run the catalog prune/select pass and fix the task list.

        Any failure inside the pass is demoted to "no pruning" — the
        catalog is an accelerant, never a correctness dependency.
        """
        ctx.keep = range(self.parallelism)
        if not self.options.prune or ctx.merge_mode != "rows":
            return
        from repro.optimizer.pruning import plan_partition_pruning

        governance = ctx.governance
        try:
            prune = plan_partition_pruning(
                ctx.analysis,
                self.database,
                self.parallelism,
                selection_fraction=getattr(governance, "selection_fraction", None),
                run_subtree=lambda node, required: self._engine_run(
                    ctx, node, governance, required=required
                ).table.built(),
                task_seed=self.options.task_seed,
            )
        except Exception:  # noqa: BLE001 - run unpruned rather than fail
            _LOG.exception("partition pruning failed; executing all partitions")
            self.registry.counter("prune.planning_failures").inc()
            return
        if prune is None or not (prune.pruned or prune.selection_active):
            # Nothing skipped: keep the plain round-robin path (it stays
            # degradable, and the split needs no catalog layout).
            return
        ctx.prune = prune
        ctx.keep = prune.keep
        # The split now follows the catalog's layout and (possibly) a
        # selected subset: a lost partition is no longer an exchangeable
        # 1/degree slice, and the strategy label — which gates the
        # degradation rule — says so.
        if prune.selection_active:
            ctx.strategy = f"selected[{prune.table}]"
        elif prune.layout_kind == "range-cluster":
            ctx.strategy = f"clustered[{prune.table}]"
        _LOG.info(
            "partition pruning: %s %d/%d partition(s) executed "
            "(%d pruned exactly, %d skipped by selection, %d stale retained)",
            prune.table,
            prune.executed,
            self.parallelism,
            len(prune.pruned),
            len(prune.unselected),
            len(prune.stale),
        )

    def _place(self, ctx: _QueryContext) -> None:
        """Look the inputs up, compile the worker plans, pick the transport.

        Each scan occurrence's base table is already cut (or broadcast
        whole) in the database's partition store; a task's input is the
        resident arrays of the columns the plan reads plus the partition's
        row indices as the occurrence's lineage, so workers see absolute
        base-row positions, when something reads that lineage: the row
        merge, or a sampler in the worker's plan.
        """
        analysis, prune, degree = ctx.analysis, ctx.prune, self.parallelism
        store = self.database.partitions
        _, attaching = liveness(analysis.split, ctx.payload_columns)
        partitions: Dict[str, List[Table]] = {}
        for entry in analysis.scans:
            base = self.database.table(entry.table)
            wname = worker_table_name(entry.scan_index)
            lineage = rowid_column_name(entry.scan_index)
            # Only what the plan reads of this scan is placed and shipped
            # (plus the routing hash's columns, and whatever reserved
            # columns the base table itself carries).
            columns = ctx.required[entry.address]
            columns += tuple(c for c in entry.hash_columns if c not in columns)
            columns += tuple(c for c in base.reserved_column_names() if c not in columns)
            # A broadcast table is its own single partition.
            broadcast = entry.mode == "broadcast"
            if broadcast:
                partitioner = Partitioner(1)
            elif entry.mode == "partition-hash":
                partitioner = Partitioner(degree, HASH, entry.hash_columns, PARTITION_HASH_SEED)
            elif prune is not None and entry.address == prune.scan_address:
                # The catalog's layout (so the summaries that justified
                # each prune describe exactly these rows), of which only
                # the partitions the prune plan executes become tasks.
                partitioner = prune.partitioner
            else:
                partitioner = Partitioner(degree)
            resident = store.partitions(base, partitioner)
            arrays, materialised = resident.columns(columns)
            ctx.placed_columns += len(columns)
            ctx.materialised_columns += materialised
            parts = []
            for pid in (0,) if broadcast else ctx.keep:
                placed = {c: arrays[c][pid] for c in columns}
                if entry.address[len(analysis.split_address):] in attaching:
                    placed[lineage] = resident.indices[pid]
                parts.append(Table(wname, placed, base.dictionaries()))
            partitions[wname] = parts * len(ctx.keep) if broadcast else parts
        ctx.resident_bytes = store.nbytes()

        # Worker plans are compiled here, in the parent and through the
        # shared plan cache: a forked worker must not touch the cache's or
        # the registry's locks (another thread may have held them at fork),
        # and repeated queries then hit on their worker plans too. Exact,
        # because worker cardinalities are stitched back in by address; and
        # asked only for what the rest of the query reads of the split. One
        # plan serves every task unless a sampler's spec is partition-local.
        t0 = perf_counter()
        shared = not analysis.partition_local(degree)
        for pid in ctx.keep:
            if shared and ctx.worker_plans:
                ctx.worker_plans.append(ctx.worker_plans[0])
                continue
            worker_plan = build_worker_plan(
                analysis.split,
                analysis.split_scan_ordinals,
                pid,
                degree,
                analysis.aligned_sampler_addresses,
            )
            physical = self.engine.compile(worker_plan, exact=True, required=ctx.payload_columns)[0]
            ctx.worker_plans.append(physical)
        ctx.compile_seconds += perf_counter() - t0
        ctx.runtime = TaskRuntime(
            self.pool, policy=self.options.retry, base_seed=self.options.task_seed
        )
        ctx.transport = shm_transport.RunTransport(self.pool, degree, self.registry)
        ctx.sources = ctx.transport.ship_inputs(partitions)

    def _run_tasks(self, ctx: _QueryContext) -> None:
        """Run every partition as a task of the fault-tolerant runtime."""
        engine, runtime, transport = self.engine, ctx.runtime, ctx.transport
        fault_plan, governance = self.options.fault_plan, ctx.governance
        worker_plans, sources = ctx.worker_plans, ctx.sources
        aggregate, two_phase, matched = ctx.analysis.aggregate, ctx.two_phase, ctx.matched
        how = Estimation.of(aggregate, self.database) if two_phase else None
        # Rows-mode payloads must carry the columns the rest of the query
        # reads of the split *and* the lineage columns that survive it —
        # merge_rows needs both to restore the serial row order — and
        # nothing else. A corrupt result that silently dropped one has to
        # be rejected by validation (and retried), not crash the merge with
        # a cross-partition schema mismatch.
        expected_columns = frozenset(ctx.payload_columns)
        shipped = expected_columns | {WEIGHT_COLUMN}

        def run_partition(task: TaskSpec):
            t0 = perf_counter()
            if fault_plan is not None:
                fault_plan.before_work(task.partition, task.attempt)
            worker_db = Database()
            for parts in sources.values():
                worker_db.register(shm_transport.open_partition(parts[task.partition]))
            key = (task.partition, task.attempt)
            # Workers poll the abandoned set (live for thread/inline, a
            # fork-time copy for processes) *and* the governance contract —
            # whose token flag and monotonic deadline stay meaningful after
            # fork — so a cancel/deadline stops every backend at the next
            # operator boundary. The context also caps each worker's
            # partition-local live bytes.
            run = engine.run(
                worker_plans[task.partition],
                database=worker_db,
                should_abort=lambda: key in runtime.abandoned,
                governance=governance,
            )
            payload = run.table
            if matched and isinstance(payload, JoinedRows):
                payload = payload.parts()
            elif two_phase:
                payload = partial_aggregate(
                    payload.built(), aggregate.group_by, aggregate.aggs, how
                )
            else:
                payload = payload.built()
                payload = payload.drop_columns(
                    [c for c in payload.column_names if c not in shipped]
                )
            result = (perf_counter() - t0, run.cardinalities, payload)
            if fault_plan is not None:
                result = fault_plan.after_work(
                    task.partition, task.attempt, result, corrupter=_corrupt_result
                )
            return transport.ship_task_result(
                result,
                task,
                simulate_exhaustion=fault_plan is not None
                and fault_plan.shm_fault_for(task.partition, task.attempt),
            )

        ctx.report = runtime.run(
            run_partition,
            len(ctx.keep),
            validate=partial(
                _validate_result, two_phase=two_phase, expected_columns=expected_columns
            ),
            governance=governance,
            **transport.hooks(),
        )

    def _undegradable(self, ctx: _QueryContext) -> Optional[str]:
        """Why a lost partition cannot be absorbed by re-weighting the
        survivors; None when it can.

        Absorbing needs *all* of: row merge (partial states fold weights
        in ways a scalar factor cannot undo); a
        round-robin strategy (hash strategies lose a deterministic key
        range, pruned/selected layouts a non-exchangeable slice — the
        survivors are a biased subset); and a plan rooted in uniform or
        universe samplers only (distinct samplers guarantee per-stratum
        minima the lost partition may have held; exact plans have no
        weights to re-scale).
        """
        if ctx.merge_mode != "rows":
            return "partial-aggregate states cannot be re-weighted after merge"
        if not ctx.strategy.startswith("round-robin"):
            return (
                f"strategy {ctx.strategy} loses a deterministic key range, "
                "not a random subset"
            )
        kinds = ctx.analysis.sampler_kinds
        if not kinds & _DEGRADABLE_KINDS:
            return "plan has no uniform/universe sampler (exact answers cannot drop data)"
        pinned = kinds - _DEGRADABLE_KINDS - _NEUTRAL_KINDS
        if pinned:
            return (
                f"sampler kinds {sorted(pinned)} pin per-stratum guarantees "
                "to specific partitions"
            )
        return None

    def _recover(self, ctx: _QueryContext) -> Optional[str]:
        """Decide what the task report's losses mean.

        Returns None when the survivors carry the answer (all of them, or a
        degradable plan's valid sub-sample), the reason when the query must
        be re-executed serially; raises when nothing can be returned.
        """
        report = ctx.report
        lost = report.failed_partitions
        survivors = len(ctx.keep) - len(lost)
        undegradable = (
            self._undegradable(ctx) if lost or report.aborted is not None else None
        )
        if report.aborted is not None:
            # Governance stopped the run mid-flight. For a blown
            # deadline/budget, salvage when the sample algebra allows it:
            # completed partitions of a degradable plan are themselves a
            # valid sample, so they flow into the standard survivors
            # re-weighting of the merge (aborted partitions are simply
            # "lost"). A *cancelled* query has no one waiting — it always
            # propagates. Never a serial re-execution, which would double
            # down on a contract already violated.
            if (
                not isinstance(report.aborted, (DeadlineExceeded, BudgetExceeded))
                or undegradable is not None
                or survivors == 0
            ):
                raise report.aborted
            self.registry.counter(
                "parallel.governed_salvages", reason=report.aborted.reason_code
            ).inc()
            _LOG.warning(
                "governance abort (%s): salvaging %d/%d completed partition(s) "
                "as a survivors-only sample",
                report.aborted.reason_code,
                survivors,
                len(ctx.keep),
            )
        if lost and undegradable is not None:
            return (
                f"partition(s) {list(lost)} permanently lost after "
                f"{self.options.retry.max_attempts} attempt(s); "
                f"{undegradable} — re-executing serially"
            )
        if survivors == 0:
            raise DegradedResultError(
                f"every partition of the parallel run failed "
                f"(first error: {report.errors[0] if report.errors else 'unknown'})"
            )
        return None

    def _merge(self, ctx: _QueryContext) -> None:
        """Merge the surviving payloads into the upper plan's override."""
        analysis, prune, report = ctx.analysis, ctx.prune, ctx.report
        lost = report.failed_partitions
        survivors = [
            (tid, result) for tid, result in enumerate(report.payloads) if result is not None
        ]
        payloads = [result[2] for _, result in survivors]

        # Precursor cardinalities: worker plans mirror the split subtree
        # node-for-node, so worker addresses are precursor-relative and sum
        # directly under the split's absolute prefix.
        for _, (_, cards, _) in survivors:
            for rel_address, count in cards.items():
                absolute = analysis.split_address + rel_address
                ctx.cardinalities[absolute] = ctx.cardinalities.get(absolute, 0) + count

        if ctx.two_phase:
            aggregate = analysis.aggregate
            ctx.overrides[analysis.aggregate_address] = finalize_partial(
                merge_partials(payloads), aggregate.aggs, Estimation.of(aggregate)
            )
            return
        if ctx.matched:
            matches = [p for p in payloads if isinstance(p, JoinParts)]
            if matches and not lost and not ctx.selecting and all(
                isinstance(p, JoinParts) or p.num_rows == 0 for p in payloads
            ):
                ctx.overrides[analysis.split_address] = merge_matches(
                    matches, ctx.required[analysis.split_address]
                )
                return
            # A partition whose join did not fan out shipped its rows, and
            # selection and degradation re-weight rows: build every output,
            # with the lineage of the probe side only.
            payloads = [
                JoinedRows.from_parts(p, ctx.payload_columns).built()
                if isinstance(p, JoinParts)
                else p
                for p in payloads
            ]
        if ctx.selecting:
            # Horvitz-Thompson fold: a row that ran in a partition drawn
            # with inclusion probability pi represents 1/pi partitions'
            # worth of its stratum.
            ctx.selection_pis = [prune.inclusion[prune.keep[tid]] for tid, _ in survivors]
            payloads = [
                payload.with_columns({WEIGHT_COLUMN: payload.weights() * (1.0 / pi)})
                if pi < 1.0
                else payload
                for payload, pi in zip(payloads, ctx.selection_pis)
            ]
        # Lineage orders the rows but nothing above the split reads it (an
        # aggregate cuts it, and a plan without one is finished lineage-free).
        merged = merge_rows(payloads, columns=ctx.required[analysis.split_address])
        if lost:
            # Sample-aware degradation: surviving partitions are a valid
            # sample; re-weight and let the variance algebra widen the CIs
            # downstream. Pruned partitions held no qualifying rows, so the
            # executed set is the population the loss is measured against.
            reweighted, ctx.reweight_factor = reweight_surviving_partitions(
                merged.weights(), len(ctx.keep), len(lost)
            )
            merged = merged.with_columns({WEIGHT_COLUMN: reweighted})
        ctx.payloads = payloads
        ctx.overrides[analysis.split_address] = merged

    def _task_ledger(self, ctx: _QueryContext) -> dict:
        """The task report as ``ParallelMetrics`` fields."""
        report, fault_plan = ctx.report, self.options.fault_plan
        return dict(
            tasks=len(report.outcomes),
            task_retries=report.total_retries,
            speculative_launches=report.speculative_launches,
            speculative_wins=report.speculative_wins,
            faults_injected=fault_plan.num_faults if fault_plan is not None else 0,
            failed_partitions=report.failed_partitions,
        )

    def _finish(self, ctx: _QueryContext) -> ExecutionResult:
        """Run the upper plan over the merged result; cost and wrap it."""
        analysis, prune, report = ctx.analysis, ctx.prune, ctx.report
        # After a salvage the contract is already blown; finishing the
        # (cheap, post-merge) upper plan ungoverned is the availability
        # promise — otherwise the expired deadline would instantly re-trip
        # and void the survivors we just salvaged.
        run = self._engine_run(
            ctx,
            ctx.plan,
            None if report.aborted is not None else ctx.governance,
            overrides=ctx.overrides,
        )
        table, cardinalities = run.table.built(), ctx.cardinalities
        cardinalities.update(run.cardinalities)
        aggregate = analysis.aggregate
        if ctx.selecting and aggregate is not None:
            # The row-level HT variance misses the between-partition
            # (cluster-sampling) component of weighted selection; fold it
            # into the CI columns now that the answer exists.
            table = inflate_selection_cis(table, aggregate, ctx.payloads, ctx.selection_pis)
        cost = cost_plan(ctx.plan, lambda node, address: cardinalities[address], self.config)
        elapsed = perf_counter() - ctx.start

        lost = report.failed_partitions
        coverage = (len(ctx.keep) - len(lost)) / len(ctx.keep)
        metrics = ParallelMetrics(
            parallelism=self.parallelism,
            strategy=ctx.strategy,
            pool_mode=ctx.runtime.pool.mode,
            merge_mode=ctx.merge_mode,
            partitioned_tables=analysis.partitioned_tables,
            wall_clock_seconds=elapsed,
            modeled_speedup=modeled_speedup(cost, self.parallelism, self.config),
            worker_seconds=report.latencies,
            degraded=bool(lost),
            coverage=coverage,
            transport="shm" if ctx.transport.shm else "pickle",
            result_bytes_on_pipe=ctx.transport.pipe_bytes,
            result_bytes_shared=ctx.transport.shared_bytes,
            pruning=prune.summary() if prune is not None else None,
            placed_columns=ctx.placed_columns,
            materialised_columns=ctx.materialised_columns,
            resident_bytes=ctx.resident_bytes,
            **self._task_ledger(ctx),
        )
        if prune is not None:
            metrics.pruning["machine_hours_credit"] = prune_cost_credit(
                prune.rows_pruned_actual + prune.rows_unselected, self.config
            )
        common = dict(
            table=table.drop_lineage(),
            cost=cost,
            cardinalities=cardinalities,
            wall_clock_seconds=elapsed,
            parallel=metrics,
        )
        if not lost:
            return ExecutionResult(**common)
        _LOG.warning(
            "degraded result: partition(s) %s permanently lost; "
            "coverage %.2f, surviving weights rescaled by %.3f",
            list(lost),
            coverage,
            ctx.reweight_factor,
        )
        return PartialResult(
            **common,
            lost_partitions=lost,
            coverage=coverage,
            reweight_factor=ctx.reweight_factor,
            abort_reason=report.aborted.reason_code if report.aborted is not None else None,
        )

    def _run_serially(self, ctx: _QueryContext, reason: str) -> ExecutionResult:
        """Serial fallback (parallel execution declined) or serial
        re-execution (its tasks ran and lost partitions nothing absorbs)."""
        reexecution = ctx.report is not None
        (_LOG.warning if reexecution else _LOG.info)(
            "falling back to serial execution: %s", reason
        )
        try:
            result = self.engine.execute_serial(ctx.plan, ctx.governance)
        except Exception as exc:
            if not reexecution:
                raise
            raise DegradedResultError(
                f"query failed: {reason}, and the serial re-execution "
                f"also failed ({type(exc).__name__}: {exc})"
            ) from exc
        result.wall_clock_seconds = perf_counter() - ctx.start
        result.parallel = ParallelMetrics(
            parallelism=self.parallelism,
            strategy="serial-fallback",
            pool_mode="inline",
            merge_mode=self.options.merge,
            reason=reason,
            wall_clock_seconds=result.wall_clock_seconds,
            **(self._task_ledger(ctx) if reexecution else {}),
        )
        return result

    def _record(self, ctx: _QueryContext, metrics: ParallelMetrics) -> None:
        """Write the query's ledger into the registry — the one place the
        ``parallel.*`` / ``transport.*`` / ``prune.*`` totals grow."""
        registry = self.registry
        fallback = metrics.strategy == "serial-fallback"
        totals = [
            ("parallel.queries", 1),
            ("parallel.serial_fallbacks", fallback),
            ("parallel.serial_reexecutions", fallback and ctx.report is not None),
            ("parallel.tasks", metrics.tasks),
            ("parallel.retries", metrics.task_retries),
            ("parallel.speculative_launches", metrics.speculative_launches),
            ("parallel.speculative_wins", metrics.speculative_wins),
            ("parallel.faults_injected", metrics.faults_injected),
            ("parallel.failed_tasks", len(metrics.failed_partitions)),
            ("parallel.degraded_queries", metrics.degraded),
            ("transport.shm_queries", metrics.transport == "shm"),
            ("transport.result_bytes_on_pipe", metrics.result_bytes_on_pipe),
            ("transport.result_bytes_shared", metrics.result_bytes_shared),
            ("parallel.resident.hits", ctx.placed_columns - ctx.materialised_columns),
            ("parallel.resident.misses", ctx.materialised_columns),
        ]
        pruning = metrics.pruning
        if pruning:
            totals += [
                ("prune.partitions_scanned", pruning["partitions_executed"]),
                ("prune.partitions_pruned", pruning["partitions_pruned"]),
                ("prune.partitions_selected", pruning["partitions_selected"]),
                ("prune.stale_retained", pruning["partitions_stale_retained"]),
                (
                    "prune.rows_skipped",
                    pruning["rows_pruned_actual"] + pruning["rows_unselected"],
                ),
            ]
        for name, amount in totals:
            if amount:
                registry.counter(name).inc(int(amount))
        for seconds in metrics.worker_seconds:
            registry.histogram("parallel.task_seconds").observe(seconds)
        if ctx.placed_columns:
            registry.gauge("parallel.resident.bytes").set(ctx.resident_bytes)
        if ctx.report is not None:
            # A serial (re-)execution recorded itself; this is the rest.
            self.engine.record_phase(ctx.compile_seconds, ctx.execute_seconds)


def _result_problem(result, two_phase: bool, expected_columns: frozenset) -> Optional[str]:
    """What is wrong with a worker's result; None when it is acceptable."""
    if not (isinstance(result, tuple) and len(result) == 3):
        return (
            f"worker returned {type(result).__name__}, expected "
            "(seconds, cardinalities, payload)"
        )
    _, cards, payload = result
    if not isinstance(cards, dict):
        return "worker cardinality map is corrupt"
    if two_phase:
        if not isinstance(payload, PartialAggregate):
            return f"expected a PartialAggregate, got {type(payload).__name__}"
        return None
    if isinstance(payload, JoinParts):
        return _matches_problem(payload, expected_columns)
    if not isinstance(payload, Table):
        return f"expected a Table, got {type(payload).__name__}"
    missing = expected_columns - set(payload.column_names)
    if missing:
        return f"partition output is missing columns {sorted(missing)}"
    if payload.has_weights() and not np.isfinite(payload.weights()).all():
        return "partition output carries non-finite sample weights"
    return None


def _matches_problem(parts: JoinParts, expected_columns: frozenset) -> Optional[str]:
    """What is wrong with a partition's matches; None when they are acceptable."""
    probe, build = parts
    tables = [probe] if build is None else [probe, build]
    if not all(isinstance(table, Table) for table in tables):
        return "partition matches are not tables"
    if not probe.has_column(MATCH_COLUMN):
        return "partition matches carry no match counts"
    missing = expected_columns - {name for table in tables for name in table.column_names}
    if missing:
        return f"partition matches are missing columns {sorted(missing)}"
    counts = probe.key_column(MATCH_COLUMN)
    if (counts < 1).any() or (build is not None and build.num_rows != counts.sum()):
        return "partition match counts do not add up to its build rows"
    if any(t.has_weights() and not np.isfinite(t.weights()).all() for t in tables):
        return "partition matches carry non-finite sample weights"
    return None


def _validate_result(result, task: TaskSpec, two_phase: bool, expected_columns: frozenset) -> None:
    problem = _result_problem(result, two_phase, expected_columns)
    if problem is not None:
        raise TaskError(
            problem, partition=task.partition, attempt=task.attempt, kind="validation"
        )


def _corrupt_result(result):
    """Corrupter for injected ``corrupt`` faults: damage the payload member
    of the worker's (seconds, cardinalities, payload) result."""
    seconds, cards, payload = result
    if isinstance(payload, Table):
        return (seconds, cards, corrupt_table(payload))
    if isinstance(payload, JoinParts):
        return (seconds, cards, payload._replace(probe=corrupt_table(payload.probe)))
    return (seconds, cards, None)  # partial state: replaced by junk
