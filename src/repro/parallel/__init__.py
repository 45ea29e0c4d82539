"""Partition-parallel execution of sampled plans.

The paper's samplers are single-pass, bounded-memory and partitionable
(Section 4.1) so sampled plans parallelize like any other first-pass
operator. This package supplies the pieces:

- :class:`Partitioner` (from :mod:`repro.engine.partitions`) — round-robin
  and hash input splits;
- :mod:`repro.parallel.plan` — precursor/successor split, strategy choice,
  worker plan rewriting;
- :mod:`repro.parallel.pool` — the process/thread/inline backends a run opens;
- :mod:`repro.parallel.tasks` — the one fault-tolerant scheduler over
  them: bounded retries with backoff, straggler speculation, structured
  failures;
- :mod:`repro.parallel.faults` — seeded fault injection for chaos testing;
- :mod:`repro.parallel.merge` — exact row-order merge and the selection
  term of the CIs (partial-aggregate states are
  :mod:`repro.engine.aggregate`'s, the serial operator's own);
- :mod:`repro.parallel.executor` — the orchestrating
  :class:`ParallelExecutor`, reached from
  :class:`repro.engine.executor.Executor` via ``parallelism=N``; lost
  partitions gracefully degrade sampled queries to
  :class:`~repro.engine.executor.PartialResult` answers.
"""

from repro.engine.partitions import HASH, ROUND_ROBIN, Partitioner
from repro.parallel.executor import ParallelExecutor, ParallelOptions
from repro.parallel.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedFault,
    corrupt_table,
)
from repro.parallel.merge import merge_rows
from repro.parallel.plan import PlanAnalysis, analyze_plan, build_worker_plan
from repro.parallel.pool import WorkerPool, available_parallelism
from repro.parallel.tasks import (
    RetryPolicy,
    TaskOutcome,
    TaskReport,
    TaskRuntime,
    TaskSpec,
    task_seed,
)

__all__ = [
    "ParallelExecutor",
    "ParallelOptions",
    "Partitioner",
    "ROUND_ROBIN",
    "HASH",
    "PlanAnalysis",
    "analyze_plan",
    "build_worker_plan",
    "WorkerPool",
    "available_parallelism",
    "merge_rows",
    "TaskSpec",
    "RetryPolicy",
    "TaskOutcome",
    "TaskReport",
    "TaskRuntime",
    "task_seed",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "corrupt_table",
]
