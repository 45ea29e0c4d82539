"""Cluster configuration and plan-cost structures.

The paper evaluates on a production cluster and reports machine-hours,
runtime, shuffled data and intermediate data (Section 5.1). Our substitute
is an analytical cluster model: plans are split into *stages* (pipelines
bounded by exchanges), each stage runs with a degree of parallelism derived
from its input size, and costs accumulate per stage. The same model costs
optimizer alternatives (with estimated cardinalities) and measures executed
plans (with actual cardinalities), so "estimated vs measured" differ only by
cardinality quality — as in a real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "ClusterConfig",
    "StageCost",
    "PlanCost",
    "ParallelMetrics",
    "modeled_speedup",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the simulated cluster.

    Costs are in abstract work units per row; one "machine-hour" is one unit
    of work on one task. Defaults are tuned so TPC-DS-like plans produce the
    pass counts and gain profiles the paper reports (2-4 effective passes,
    startup-dominated small stages, shuffle-heavy fact-fact joins).
    """

    rows_per_task: int = 20_000
    max_dop: int = 64
    task_startup: float = 4_000.0
    scan_cost: float = 0.6
    select_cost: float = 0.25
    project_cost: float = 0.35
    join_build_cost: float = 1.6
    join_probe_cost: float = 1.6
    partial_agg_cost: float = 1.0
    final_agg_cost: float = 1.0
    sort_cost: float = 1.5
    exchange_cost: float = 4.0  # write + network + read, per shuffled row
    broadcast_threshold: int = 1_000
    language_boundary_cost: float = 0.05  # samplers run out-of-process (C# in the paper)

    def dop_for_rows(self, rows: float) -> int:
        """Degree of parallelism for a stage reading ``rows`` rows."""
        if rows <= 0:
            return 1
        return int(min(self.max_dop, max(1, math.ceil(rows / self.rows_per_task))))


@dataclass
class StageCost:
    """One executed stage (a pipeline between exchanges)."""

    pass_index: int
    input_rows: float
    output_rows: float
    dop: int
    cpu_work: float
    duration: float
    shuffled_rows: float = 0.0
    description: str = ""
    sampler_kinds: Tuple[str, ...] = ()

    @property
    def machine_hours(self) -> float:
        """Total work of this stage's tasks (startup already included)."""
        return self.cpu_work


@dataclass
class PlanCost:
    """Aggregate cost of a plan, in the paper's reporting vocabulary."""

    stages: List[StageCost] = field(default_factory=list)
    job_input_rows: float = 0.0
    job_output_rows: float = 0.0

    @property
    def machine_hours(self) -> float:
        """Sum of work across all tasks — cluster occupancy / throughput."""
        return sum(s.cpu_work for s in self.stages)

    @property
    def runtime(self) -> float:
        """Critical-path completion time (set by the cost walk)."""
        return self._runtime

    _runtime: float = 0.0

    @property
    def shuffled_rows(self) -> float:
        """Rows moved across the network at exchanges."""
        return sum(s.shuffled_rows for s in self.stages)

    @property
    def intermediate_rows(self) -> float:
        """Sum of stage outputs less the job output — excess IO footprint."""
        total = sum(s.output_rows for s in self.stages)
        return max(0.0, total - self.job_output_rows)

    @property
    def effective_passes(self) -> float:
        """(sum of task inputs + outputs) / (job input + output), the
        paper's definition of effective passes over data."""
        denominator = self.job_input_rows + self.job_output_rows
        if denominator <= 0:
            return 0.0
        numerator = sum(s.input_rows + s.output_rows for s in self.stages)
        return numerator / denominator

    @property
    def first_pass_duration(self) -> float:
        """Duration of the initial (extraction) wave of stages."""
        first = [s.duration for s in self.stages if s.pass_index == 0]
        return max(first) if first else 0.0

    def total_over_first_pass(self) -> float:
        """The paper's 'Total/First pass time' query statistic."""
        first = self.first_pass_duration
        if first <= 0:
            return 1.0
        return max(1.0, self.runtime / first)

    def sampler_source_distances(self) -> List[int]:
        """IO passes between extraction and each sampler (paper Table 5)."""
        out = []
        for stage in self.stages:
            out.extend(stage.pass_index for _ in stage.sampler_kinds)
        return out

    def summary(self) -> dict:
        return {
            "machine_hours": self.machine_hours,
            "runtime": self.runtime,
            "shuffled_rows": self.shuffled_rows,
            "intermediate_rows": self.intermediate_rows,
            "effective_passes": self.effective_passes,
            "stages": len(self.stages),
        }


def modeled_speedup(
    cost: PlanCost, parallelism: int, config: Optional[ClusterConfig] = None
) -> float:
    """Cluster-model speedup of running a measured plan at ``parallelism``.

    Per stage, a one-worker run takes ``startup + work`` while a ``D``-way
    partition-parallel run divides the row work but still pays one task
    startup per wave (Amdahl's serial fraction):

        serial   runtime = sum_s (startup + work_s)
        parallel runtime = sum_s (startup + work_s / D)

    Stage ``cpu_work`` folds in ``dop * task_startup``, so the startup share
    is recovered from the stage's recorded dop. This is the *modeled*
    companion to the measured wall clock in :class:`ParallelMetrics` —
    comparing the two shows how far the Python substrate is from the
    hardware ceiling.
    """
    if parallelism <= 1 or not cost.stages:
        return 1.0
    config = config or ClusterConfig()
    serial = 0.0
    parallel = 0.0
    for stage in cost.stages:
        work = max(0.0, stage.cpu_work - stage.dop * config.task_startup)
        serial += config.task_startup + work
        parallel += config.task_startup + work / parallelism
    if parallel <= 0:
        return 1.0
    return serial / parallel


@dataclass
class ParallelMetrics:
    """What the parallel executor did and how it paid off — one query's
    record, written once into the metrics registry by the pipeline's
    ``record`` stage.

    ``modeled_speedup`` is the cluster cost model's prediction for this
    degree of parallelism; a measured speedup is the caller's serial wall
    clock over ``wall_clock_seconds`` (``repro speedup`` times its own).
    """

    parallelism: int
    strategy: str = "serial-fallback"
    pool_mode: str = "inline"
    merge_mode: str = "rows"
    partitioned_tables: Tuple[str, ...] = ()
    reason: str = ""
    wall_clock_seconds: float = 0.0
    modeled_speedup: float = 1.0
    worker_seconds: Tuple[float, ...] = ()
    #: -- fault tolerance (see repro.parallel.tasks) -------------------------
    #: Partition tasks launched at least once.
    tasks: int = 0
    #: Failed attempts that were re-launched (retries with backoff).
    task_retries: int = 0
    #: Speculative duplicate attempts launched for stragglers.
    speculative_launches: int = 0
    #: Tasks whose winning result came from a speculative duplicate.
    speculative_wins: int = 0
    #: Faults the active FaultPlan injected into this run.
    faults_injected: int = 0
    #: Partitions that exhausted every attempt.
    failed_partitions: Tuple[int, ...] = ()
    #: Sample-aware graceful degradation was applied (PartialResult).
    degraded: bool = False
    #: Fraction of partitions whose results made it into the answer.
    coverage: float = 1.0
    #: -- transport (see repro.parallel.transport) ----------------------------
    #: Result transport actually used: "shm" (TableRefs over the pipe,
    #: bytes in shared memory) or "pickle" (whole payloads over the pipe).
    transport: str = "pickle"
    #: Bytes that crossed the result pipe (refs in shm mode; measured
    #: pickled payloads in pickle mode when measurement was requested).
    result_bytes_on_pipe: int = 0
    #: Bytes of table data moved via shared memory instead of the pipe.
    result_bytes_shared: int = 0
    #: -- partition pruning (see repro.optimizer.pruning) ---------------------
    #: ``ScanPrunePlan.summary()`` dict when the catalog prune/select pass
    #: skipped anything this query; None otherwise.
    pruning: Optional[dict] = None
    #: -- placement (see repro.engine.partitions) -----------------------------
    #: Scan columns the query's tasks were placed on, how many of those the
    #: partition store had to materialise for it (the rest were resident),
    #: and the bytes the store held afterwards.
    placed_columns: int = 0
    materialised_columns: int = 0
    resident_bytes: int = 0

    def summary(self) -> dict:
        out = {
            "parallelism": self.parallelism,
            "strategy": self.strategy,
            "pool": self.pool_mode,
            "merge": self.merge_mode,
            "modeled_speedup": round(self.modeled_speedup, 2),
            "wall_clock_s": round(self.wall_clock_seconds, 4),
        }
        if self.transport != "pickle":
            out["transport"] = self.transport
            out["result_bytes_on_pipe"] = self.result_bytes_on_pipe
            out["result_bytes_shared"] = self.result_bytes_shared
        if self.task_retries:
            out["retries"] = self.task_retries
        if self.speculative_launches:
            out["speculative"] = f"{self.speculative_wins}/{self.speculative_launches} won"
        if self.faults_injected:
            out["faults"] = self.faults_injected
        if self.degraded:
            out["degraded"] = True
            out["coverage"] = round(self.coverage, 3)
            out["lost_partitions"] = list(self.failed_partitions)
        if self.pruning:
            out["pruning"] = (
                f"{self.pruning['partitions_executed']}/"
                f"{self.pruning['partitions_total']} partition(s) executed "
                f"({self.pruning['partitions_pruned']} pruned"
                + (
                    f", {len(self.pruning.get('predicates', []))} predicate(s)"
                    if self.pruning.get("predicates")
                    else ""
                )
                + ")"
            )
        if self.reason:
            out["note"] = self.reason
        return out
