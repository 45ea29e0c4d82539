"""Plan executor: compiles and runs (possibly sampled) logical plans.

There is one way to run a plan: :meth:`PlanRunner.run`, the compile→run
primitive. :meth:`PlanRunner.compile` lowers the logical tree into a
:class:`~repro.engine.physical.PhysicalPlan` (stable node addresses,
lineage assignment, operator pipeline — see :mod:`repro.engine.physical`)
through a fingerprint-keyed LRU, so repeated queries — the experiment
runner's per-trial re-executions, warm production traffic — pay compilation
once; the compiled plan then executes iteratively. A serial query *is* that
primitive plus cost and bookkeeping (:meth:`PlanRunner.execute_serial`).
Pass ``parallelism=N`` to run partition-parallel through
:class:`repro.parallel.ParallelExecutor` (the paper's deployment mode —
samplers are single-pass, bounded-memory and partitionable, Section 4.1),
whose tasks, upper plan, pruning sub-queries and serial fallbacks all call
the same primitive on the :class:`Executor` that owns it.

Every operator's input and output cardinalities are recorded, keyed by the
operator's structural address, and replayed through the stage-based cluster
cost model (:mod:`repro.engine.costmodel`), yielding the metrics the paper
reports — machine-hours, runtime, shuffled data, intermediate data and
effective passes — for the *measured* cardinalities of this run.

The compiled plan attaches a reserved lineage column (the base-row
position) to each scan occurrence whose lineage something reads. Lineage
gives each intermediate row a stable identity across any partitioning of
the input, which makes the uniform sampler's decisions counter-based
(identical serial or parallel) and lets the parallel merge restore exact
serial row order. Lineage is stripped from final answers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple, Union

from repro.algebra.addressing import NodeAddress, format_address, plan_fingerprint
from repro.algebra.builder import Query
from repro.algebra.logical import LogicalNode
from repro.engine.costmodel import cost_plan
from repro.engine.metrics import ClusterConfig, ParallelMetrics, PlanCost
from repro.engine.operators import JoinedRows
from repro.engine.physical import OperatorMetrics, PhysicalPlan, PlanCache, compile_plan
from repro.engine.table import Database, Table
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricsRegistry

_LOG = obs_log.logger("engine.executor")

__all__ = ["ExecutionResult", "PartialResult", "PlanRun", "PlanRunner", "Executor"]

_NO_SPAN = contextlib.nullcontext()


def _span(tracer, name: str, **attributes):
    return tracer.span(name, **attributes) if tracer is not None else _NO_SPAN


@dataclass
class ExecutionResult:
    """The answer table plus the cluster-model cost of producing it."""

    table: Table
    cost: PlanCost
    #: Output rows per operator, keyed by the operator's structural address.
    cardinalities: Dict[NodeAddress, int]
    #: Measured wall-clock of the execution (seconds); None when not timed.
    wall_clock_seconds: Optional[float] = None
    #: Populated by the parallel executor: partitioning strategy, worker
    #: timings, modeled speedup, fault and transport ledger.
    parallel: Optional[ParallelMetrics] = None
    #: Time spent compiling (or fetching the compiled plan); None untimed.
    compile_seconds: Optional[float] = None
    #: Whether the compiled plan came from the executor's plan cache.
    plan_cache_hit: bool = False
    #: Per-operator rows-in/rows-out and wall time, in execution order.
    operators: Tuple[OperatorMetrics, ...] = ()

    @property
    def answer(self) -> Table:
        return self.table

    @property
    def degraded(self) -> bool:
        """True when the answer was computed over a strict subset of the
        data because partitions were permanently lost (see
        :class:`PartialResult`)."""
        return False


@dataclass
class PartialResult(ExecutionResult):
    """An answer computed over surviving partitions only.

    Returned by the parallel executor when a partition exhausted its retry
    budget but the plan roots in a uniform or universe sampler: the
    surviving partitions are themselves a valid sample of the data, so the
    Horvitz-Thompson weights are re-scaled by ``num_partitions /
    survivors`` and the estimates stay unbiased with correspondingly
    widened confidence intervals — instead of failing the query. ``coverage``
    is the achieved fraction of partitions (and, in expectation, of data)
    the answer is based on.
    """

    #: Partitions whose tasks permanently failed.
    lost_partitions: Tuple[int, ...] = ()
    #: Fraction of partitions that survived, in (0, 1).
    coverage: float = 1.0
    #: Horvitz-Thompson weight multiplier applied to surviving rows
    #: (``1 / coverage``).
    reweight_factor: float = 1.0
    #: Governance reason code (``"deadline"`` / ``"budget"``) when the
    #: partition loss was a governed mid-flight abort salvaged into
    #: survivors-so-far; None when partitions were lost to faults.
    abort_reason: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return True


@dataclass
class PlanRun:
    """What one pass through :meth:`PlanRunner.run` produced."""

    physical: PhysicalPlan
    #: Whether the compiled plan came from the plan cache.
    cache_hit: bool
    #: Raw root output, lineage intact: a table, or a join that fanned out
    #: left lazy (``JoinedRows``) unless the run was top-level;
    #: ``table.built()`` is the table either way.
    table: Union[Table, JoinedRows]
    cardinalities: Dict[NodeAddress, int]
    #: Per-operator metrics (empty unless the run was top-level).
    operators: Tuple[OperatorMetrics, ...]
    compile_seconds: float
    execute_seconds: float


#: ``timings()["fault_tolerance"]`` keys; each reads the ``parallel.<key>``
#: registry counter.
_FAULT_LEDGER = (
    "queries", "tasks", "retries", "speculative_launches", "speculative_wins",
    "failed_tasks", "degraded_queries", "serial_reexecutions",
)


class PlanRunner:
    """The engine core: one compile→run primitive over one plan cache.

    Everything that executes a plan goes through :meth:`run` — a serial
    query, a partition task, the parallel upper plan, a pruning sub-query,
    a serial fallback — so they share one compiled-plan LRU and one
    stopwatch. :meth:`run` itself touches neither the registry nor any lock
    when handed an already compiled plan, which is what lets forked
    partition workers call it; the parent-side callers fold what it
    measured into the registry with :meth:`record` / :meth:`record_phase`.

    Parameters
    ----------
    database:
        Catalog of base tables (the default ``run`` target).
    config:
        Cluster cost-model knobs.
    plan_cache_size:
        Capacity of the fingerprint-keyed compiled-plan LRU (0 disables
        caching).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` every layer
        records into (plan-cache traffic, compile vs. execute time,
        per-sampler telemetry, parallel fault counters) — the only
        cumulative store. A fresh private registry is created when omitted.
    """

    def __init__(
        self,
        database: Database,
        config: Optional[ClusterConfig] = None,
        plan_cache_size: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.database = database
        self.config = config or ClusterConfig()
        self.plan_cache = PlanCache(capacity=int(plan_cache_size))
        self.registry = registry if registry is not None else MetricsRegistry()
        # What registering the database's tables dictionary-coded.
        coded = [d for t in database.tables().values() for d in t.dictionaries().values()]
        self.registry.counter("engine.dictionary.columns").inc(len(coded))
        self.registry.gauge("engine.dictionary.bytes").set(sum(d.nbytes for d in coded))

    # -- the primitive --------------------------------------------------------
    def compile(
        self, plan: LogicalNode, exact: bool = False, required: Optional[Tuple[str, ...]] = None
    ) -> Tuple[PhysicalPlan, bool]:
        """Compiled plan for ``plan`` plus whether it was a cache hit.

        The cache key is the canonical fingerprint, so a structurally
        equivalent plan (e.g. commuted inner-join inputs) reuses the cached
        compilation of its canonical representative. ``exact`` guarantees
        the compiled plan's node addresses match ``plan``'s own structure
        instead — required when the caller keys overrides or cardinalities
        by address. ``required`` is what the caller reads of the plan's
        output when that is not all of it (a partition task's plan, a
        pruning probe; see :func:`~repro.engine.physical.required_columns`);
        it is part of the key, since it decides what every operator below
        carries. Cache traffic is counted into the registry here, where it
        happens.
        """
        plan = plan.plan if isinstance(plan, Query) else plan
        fingerprint = plan_fingerprint(plan)
        key = fingerprint if required is None else (fingerprint, tuple(required))
        physical = self.plan_cache.get(key)
        hit = physical is not None
        self.registry.counter("plan_cache.hits" if hit else "plan_cache.misses").inc()
        if hit and not (exact and physical.logical.key() != plan.key()):
            return physical, True
        physical = compile_plan(
            plan, self.database, fingerprint=fingerprint, root_required=required
        )
        if not hit:
            evicted = self.plan_cache.put(key, physical)
            if evicted:
                self.registry.counter("plan_cache.evictions").inc(evicted)
        return physical, hit

    def run(
        self,
        plan: Union[LogicalNode, PhysicalPlan],
        *,
        database: Optional[Database] = None,
        overrides: Optional[Dict[NodeAddress, Table]] = None,
        should_abort: Optional[Callable[[], bool]] = None,
        governance=None,
        top_level: bool = False,
        required: Optional[Tuple[str, ...]] = None,
    ) -> PlanRun:
        """Compile (unless ``plan`` already is) and execute one plan.

        ``database`` defaults to the runner's own; partition tasks pass
        their partition-local catalog. ``overrides`` maps a node address to
        a table: that subtree is not executed and the given table is used
        as its output (the parallel executor runs the merged partition
        result through the serial successor this way); override addresses
        refer to ``plan``'s own structure, so it is compiled ``exact``.
        ``should_abort`` is the cooperative-cancellation poll forwarded to
        :meth:`PhysicalPlan.execute` (parallel workers use it to stop
        speculative losers early); ``governance`` (a
        :class:`~repro.engine.governance.GovernanceContext`) adds the typed
        deadline/budget/cancel checks at the same operator boundaries.
        ``top_level`` marks the run that *is* the query: it gets the
        ``query.compile`` / ``query.execute`` spans and per-operator
        metrics, and its root built within the timed execute span.
        ``required`` is forwarded to :meth:`compile`.
        """
        tracer = obs_trace.current_tracer()
        spans = tracer if top_level else None
        t0 = perf_counter()
        if isinstance(plan, PhysicalPlan):
            physical, cache_hit = plan, True
        else:
            with _span(spans, "query.compile"):
                physical, cache_hit = self.compile(
                    plan, exact=bool(overrides), required=required
                )
        compile_s = perf_counter() - t0

        t0 = perf_counter()
        with _span(
            spans,
            "query.execute",
            fingerprint=physical.fingerprint[:12],
            cache_hit=cache_hit,
            operators=physical.num_operators,
        ):
            table, cardinalities, op_metrics = physical.execute(
                self.database if database is None else database,
                overrides=overrides,
                record_metrics=top_level,
                should_abort=should_abort,
                tracer=tracer,
                governance=governance,
            )
            if top_level:  # the query's answer: a join left lazy is built here
                table = table.built()
        return PlanRun(
            physical, cache_hit, table, cardinalities, op_metrics,
            compile_s, perf_counter() - t0,
        )

    def execute_serial(self, plan: LogicalNode, governance=None) -> ExecutionResult:
        """One serial query: the primitive, its cost, its bookkeeping."""
        run = self.run(plan, governance=governance, top_level=True)
        _LOG.debug(
            "ran plan %s: compile %.4fs (cache %s), execute %.4fs",
            run.physical.fingerprint[:12], run.compile_seconds,
            "hit" if run.cache_hit else "miss", run.execute_seconds,
        )
        self.record(run)
        # Cost the compiled logical tree: on a canonical cache hit its
        # addresses (not necessarily the submitted object's) key the
        # cardinalities.
        cardinalities = run.cardinalities
        cost = cost_plan(
            run.physical.logical, lambda node, address: cardinalities[address], self.config
        )
        return ExecutionResult(
            table=run.table.drop_lineage(),
            cost=cost,
            cardinalities=cardinalities,
            wall_clock_seconds=run.execute_seconds,
            compile_seconds=run.compile_seconds,
            plan_cache_hit=run.cache_hit,
            operators=run.operators,
        )

    # -- recording ------------------------------------------------------------
    def record_phase(self, compile_seconds: float, execute_seconds: float) -> None:
        """Fold one parent-side engine phase into the registry: a top-level
        run, or everything a parallel query compiled and ran outside its
        tasks. Also refreshes the ``memory.*`` arena gauges."""
        from repro.memory import memory_stats

        registry = self.registry
        registry.histogram("executor.compile_seconds").observe(compile_seconds)
        registry.histogram("executor.execute_seconds").observe(execute_seconds)
        stats = memory_stats()
        registry.gauge("memory.live_segments").set(stats["segments"])
        registry.gauge("memory.bytes_mapped").set(stats["bytes_mapped"])

    def record(self, run: PlanRun) -> None:
        """Fold one top-level run into the registry."""
        registry = self.registry
        registry.counter("executor.queries").inc()
        self.record_phase(run.compile_seconds, run.execute_seconds)
        short = run.physical.fingerprint[:12]
        for op in run.operators:
            if op.sampler is None:
                continue
            labels = {
                "plan": short,
                "address": format_address(op.address),
                "kind": op.sampler["kind"],
            }
            registry.counter("sampler.rows_in", **labels).inc(op.rows_in)
            registry.counter("sampler.rows_out", **labels).inc(op.rows_out)
            registry.gauge("sampler.weight_mass", **labels).set(op.sampler["weight_mass"])
            registry.gauge("sampler.effective_rate", **labels).set(
                op.sampler["effective_rate"]
            )
            registry.gauge("sampler.target_p", **labels).set(op.sampler["target_p"])


class Executor(PlanRunner):
    """Compiles and executes logical plans against a :class:`Database`.

    Takes :class:`PlanRunner`'s parameters, plus:

    parallelism:
        Degree of partition parallelism. ``1`` (default) runs serially;
        ``N > 1`` routes execution through
        :class:`repro.parallel.ParallelExecutor` with ``N`` partitions.
    parallel_options:
        Optional :class:`repro.parallel.ParallelOptions` forwarded to the
        parallel executor (pool mode, merge mode, partition strategy).

    Execution is stateless per run — compiled plans hold no run state and
    samplers re-derive their randomness per call — and every statistic
    lives in the thread-safe registry, so one Executor serves concurrent
    threads.
    """

    def __init__(
        self,
        database: Database,
        config: Optional[ClusterConfig] = None,
        parallelism: int = 1,
        parallel_options=None,
        plan_cache_size: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(database, config, plan_cache_size, registry)
        self.parallelism = int(parallelism)
        self.parallel_options = parallel_options
        #: The one worker pool every parallel query of this executor runs
        #: on: its threads start on first use and exit when the executor is
        #: dropped. None while serial.
        self.worker_pool = None
        if self.parallelism > 1:
            from repro.parallel.pool import WorkerPool  # the package imports this module

            self.worker_pool = (
                WorkerPool(parallel_options.pool, parallel_options.max_workers)
                if parallel_options is not None
                else WorkerPool()
            )

    def execute(self, query, governance=None) -> ExecutionResult:
        """Run a :class:`Query` or bare plan node; returns answer + cost.

        ``governance`` (a :class:`~repro.engine.governance.GovernanceContext`)
        makes the run cancellable/deadlined/memory-budgeted: it is checked
        at every operator boundary (serially) or task boundary
        (parallel) and raises the typed
        :class:`~repro.errors.GovernanceError` when violated.
        """
        plan = query.plan if isinstance(query, Query) else query
        if self.parallelism <= 1:
            return self.execute_serial(plan, governance)
        # Built per query (a few attribute stores), never kept: a stored one
        # would point back at this executor, and that cycle would hold a
        # dropped executor's database until the cyclic collector ran.
        from repro.parallel.executor import ParallelExecutor  # imports this module

        return ParallelExecutor(
            self.database,
            self.config,
            self.parallelism,
            self.parallel_options,
            engine=self,
            pool=self.worker_pool,
        ).execute(plan, governance=governance)

    # -- reporting: read-only views over the registry ---------------------------
    def timings(self) -> dict:
        """Cumulative compile/execute split, plan-cache statistics and (for
        a parallel executor) the fault-tolerance ledger."""
        registry = self.registry
        out = {
            "compile_seconds": registry.histogram("executor.compile_seconds").total,
            "execute_seconds": registry.histogram("executor.execute_seconds").total,
            "plan_cache": {
                **self.plan_cache.stats(),
                **{
                    key: int(registry.total(f"plan_cache.{key}"))
                    for key in ("hits", "misses", "evictions")
                },
            },
        }
        if self.parallelism > 1:
            ledger = {
                key: int(registry.value(f"parallel.{key}") or 0) for key in _FAULT_LEDGER
            }
            faults = int(registry.value("parallel.faults_injected") or 0)
            if faults:
                ledger["faults_injected"] = faults
            latency = registry.histogram("parallel.task_seconds").snapshot()
            if latency["count"]:
                ledger["task_latency_s"] = {
                    key: round(latency[key], 4) for key in ("p50", "p95", "max")
                }
            out["fault_tolerance"] = ledger
        return out

    def snapshot(self) -> dict:
        """One JSON-able view of everything this executor measured: the
        ``timings()`` block plus the full metrics registry."""
        return {"timings": self.timings(), "metrics": self.registry.snapshot()}

    def reset_metrics(self) -> dict:
        """Zero every statistic while keeping caches warm.

        Returns the final pre-reset snapshot. This is the harvest boundary
        benchmarks need: a warm-up pass primes the plan caches, then
        ``reset_metrics()`` guarantees the measured pass's counters start
        from zero instead of bleeding across phases.
        """
        final = {"timings": self.timings()}
        # The registry harvest is the atomic drain, not snapshot-then-zero:
        # a counter increment racing this call lands either in the snapshot
        # returned here or in the next one, never in neither.
        final["metrics"] = self.registry.reset()
        return final
