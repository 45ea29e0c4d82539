"""Fault-tolerant task scheduling over the worker pools.

Each partition of a parallel run becomes a :class:`TaskSpec` — id, attempt
counter, deterministic seed and a straggler deadline — executed through the
:class:`TaskRuntime`, which layers the failure handling a Cosmos-style
cluster scheduler would provide (the paper's samplers are single-pass and
partitionable *precisely so that* tasks can be retried and speculated
independently, Section 4.1):

* **structured failures** — a worker exception becomes a
  :class:`~repro.errors.TaskError` with partition/attempt context instead
  of a raw traceback; results are optionally validated, so corrupt payloads
  are failures too;
* **bounded retries with exponential backoff** — a failed attempt is
  re-launched after ``base * factor^attempt`` seconds (deterministically
  jittered by the task seed), up to ``max_attempts``. Because sampler
  decisions are counter-based on row lineage, a retried attempt is
  bit-identical to the attempt it replaces;
* **straggler speculation** — once enough attempts have completed, a task
  running longer than ``speculation_multiplier *`` the median attempt
  duration gets a speculative duplicate; the first attempt to finish wins,
  and losers are cancelled (unstarted ones immediately; running ones are
  flagged in :attr:`TaskRuntime.abandoned` so cooperative workers abort at
  the next operator boundary, and their late results are discarded);
* **pool-failure recovery** — a broken process pool (a worker died
  mid-result) is rebuilt and its in-flight attempts are charged one failed
  attempt each, not the whole query.

Tasks that exhaust every attempt are reported as failed in the
:class:`TaskReport`, never raised from here: the caller decides whether the
query can gracefully degrade (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import GovernanceError, PlanError, TaskCancelled, TaskError
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.parallel.pool import WorkerPool

__all__ = ["TaskSpec", "RetryPolicy", "TaskOutcome", "TaskReport", "TaskRuntime", "task_seed"]

_LOG = obs_log.logger("parallel.tasks")

#: Multiplier/offsets of the deterministic per-attempt seed mix (splitmix-ish
#: odd constants; any fixed values work — determinism is the point).
_SEED_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def task_seed(base_seed: int, partition: int, attempt: int) -> int:
    """Deterministic 63-bit seed for one (partition, attempt) execution."""
    mixed = (base_seed * _SEED_MIX[0] + partition * _SEED_MIX[1] + attempt * _SEED_MIX[2]) & (
        2**64 - 1
    )
    mixed ^= mixed >> 31
    return mixed & (2**63 - 1)


@dataclass(frozen=True)
class TaskSpec:
    """One attempt of one partition task, as shipped to a worker.

    Picklable and tiny: in process mode the work function travels by fork
    image while the spec crosses the pipe, so retries and speculative
    attempts can be launched against an already-running pool.
    """

    #: Partition id — the task's identity across attempts.
    partition: int
    #: 0-based attempt counter (retries and speculative duplicates increment).
    attempt: int
    #: Deterministic seed for this execution (see :func:`task_seed`).
    seed: int
    #: Straggler budget in seconds granted at launch (None before the
    #: scheduler has a latency estimate). Advisory: exceeding it triggers a
    #: speculative duplicate, not a kill.
    deadline: Optional[float] = None


@dataclass(frozen=True)
class RetryPolicy:
    """Retry / backoff / speculation knobs of the task runtime."""

    #: Maximum executions of one task via the retry path (>= 1).
    max_attempts: int = 3
    #: First retry waits this long (seconds)...
    backoff_base: float = 0.05
    #: ...growing by this factor per subsequent retry...
    backoff_factor: float = 2.0
    #: ...capped here.
    backoff_max: float = 2.0
    #: Launch speculative duplicates for stragglers.
    speculate: bool = True
    #: A task is a straggler when its running attempt exceeds
    #: ``speculation_multiplier * median completed-attempt duration``.
    speculation_multiplier: float = 3.0
    #: ...but never before this many seconds (guards tiny-task noise).
    speculation_min_seconds: float = 0.25
    #: Speculative duplicates per task (on top of retry attempts).
    max_speculative: int = 1
    #: Completed attempts needed before the median is trusted.
    speculation_quorum: int = 2
    #: Scheduler poll interval (seconds).
    poll_interval: float = 0.01

    def __post_init__(self):
        if self.max_attempts < 1:
            raise PlanError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_factor < 1.0:
            raise PlanError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def backoff_seconds(self, failures: int, seed: int) -> float:
        """Deterministically jittered exponential backoff before retry
        number ``failures`` (1-based)."""
        raw = self.backoff_base * self.backoff_factor ** max(0, failures - 1)
        capped = min(self.backoff_max, raw)
        jitter = 0.75 + 0.5 * ((seed >> 7) % 1024) / 1024.0  # [0.75, 1.25)
        return capped * jitter


@dataclass
class TaskOutcome:
    """Everything that happened to one partition task."""

    partition: int
    payload: Any = None
    succeeded: bool = False
    #: Total executions launched (initial + retries + speculative).
    attempts: int = 0
    #: Failed executions that triggered a re-launch.
    retries: int = 0
    #: Speculative duplicates launched.
    speculative: int = 0
    #: Whether a speculative duplicate (not the original lineage of
    #: retries) produced the winning result.
    won_by_speculation: bool = False
    #: Duration of the winning attempt (seconds); None if the task failed.
    seconds: Optional[float] = None
    errors: List[TaskError] = field(default_factory=list)


@dataclass
class TaskReport:
    """Aggregate result of one :meth:`TaskRuntime.run`."""

    outcomes: List[TaskOutcome]
    #: The :class:`~repro.errors.GovernanceError` that stopped the run
    #: early (cancellation/deadline/budget), or None. The runtime *returns*
    #: it instead of raising so the caller's transport cleanup still sees
    #: the full attempt ledger in :attr:`outcomes`; unfinished tasks are
    #: marked failed with kind ``governed``. The caller re-raises or
    #: degrades to a survivors-only answer.
    aborted: Optional[GovernanceError] = None

    @property
    def payloads(self) -> List[Any]:
        """Per-partition payloads (None where the task permanently failed)."""
        return [o.payload if o.succeeded else None for o in self.outcomes]

    @property
    def failed_partitions(self) -> Tuple[int, ...]:
        return tuple(o.partition for o in self.outcomes if not o.succeeded)

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def speculative_launches(self) -> int:
        return sum(o.speculative for o in self.outcomes)

    @property
    def speculative_wins(self) -> int:
        return sum(1 for o in self.outcomes if o.won_by_speculation)

    @property
    def latencies(self) -> Tuple[float, ...]:
        """Winning-attempt durations of the successful tasks, by partition."""
        return tuple(o.seconds for o in self.outcomes if o.seconds is not None)

    @property
    def errors(self) -> List[TaskError]:
        return [e for o in self.outcomes for e in o.errors]


@dataclass
class _Attempt:
    """Parent-side bookkeeping of one in-flight execution."""

    spec: TaskSpec
    future: Any
    started: float
    speculative: bool
    #: Parent-side trace span of this attempt (None when tracing is off).
    span: Any = None


@dataclass
class _TracedPayload:
    """A worker's payload plus its serialized span buffer.

    Plain data (the buffer is a list of dicts), so it pickles across the
    process-pool result pipe; the parent adopts the spans under the
    attempt span and unwraps the payload before validation.
    """

    payload: Any
    spans: List[dict]


def _traced_fn(fn: Callable[["TaskSpec"], Any]) -> Callable[["TaskSpec"], Any]:
    """Wrap a work function to record its spans into a private buffer.

    The wrapper installs a fresh :class:`~repro.obs.trace.Tracer` as the
    worker's thread-local override, so instrumentation inside ``fn`` (the
    physical executor's per-operator spans) lands in the buffer regardless
    of pool backend — inline, thread, or fork — and is shipped back with
    the payload. The closure travels to process workers by fork image, so
    it does not need to pickle.
    """

    def traced(spec: "TaskSpec") -> _TracedPayload:
        worker = obs_trace.Tracer()
        previous = obs_trace.push_override(worker)
        try:
            with worker.span(
                "task.work", partition=spec.partition, attempt=spec.attempt
            ):
                payload = fn(spec)
        finally:
            obs_trace.pop_override(previous)
        return _TracedPayload(payload=payload, spans=worker.buffer())

    return traced


def _wrap(exc: BaseException, spec: TaskSpec, kind: str = "exception") -> TaskError:
    if isinstance(exc, TaskError):
        return exc
    if isinstance(exc, GovernanceError):
        kind = "governed"
    error = TaskError(
        f"{type(exc).__name__}: {exc}",
        partition=spec.partition,
        attempt=spec.attempt,
        kind=kind,
    )
    error.__cause__ = exc  # keep the chain without re-raising
    return error


class TaskRuntime:
    """Runs partition tasks over a :class:`WorkerPool` with fault handling.

    Holds what outlives a run — pool, policy, seed — and :attr:`abandoned`;
    everything one :meth:`run` mutates lives in its :class:`_Scheduler`.
    The pool usually outlives the runtime too: an
    :class:`~repro.engine.executor.Executor` hands the same one to every
    query's runtime, so many runs (concurrent ones included) share its
    resident threads.

    ``validate(payload, spec)`` — optional; raise (anything) to reject a
    result, turning e.g. corrupt rows into a retryable failure.

    :attr:`abandoned` is the live set of ``(partition, attempt)`` pairs
    whose results are no longer wanted. It stays on the runtime because
    work functions are built before :meth:`run` and poll it by reference
    (directly or via a ``should_abort`` callback into the physical
    executor) to stop wasting CPU: shared with thread/inline workers;
    process workers hold a fork-time copy and simply run to completion,
    their results dropped on arrival.
    """

    def __init__(
        self,
        pool: WorkerPool,
        policy: Optional[RetryPolicy] = None,
        base_seed: int = 0,
    ):
        self.pool = pool
        self.policy = policy or RetryPolicy()
        self.base_seed = int(base_seed)
        self.abandoned: Set[Tuple[int, int]] = set()

    def run(
        self,
        fn: Callable[[TaskSpec], Any],
        num_tasks: int,
        validate: Optional[Callable[[Any, TaskSpec], None]] = None,
        receive: Optional[Callable[[Any, TaskSpec], Any]] = None,
        dispose: Optional[Callable[[Any], None]] = None,
        reap: Optional[Callable[[TaskSpec], None]] = None,
        governance=None,
    ) -> TaskReport:
        """Run ``fn`` over ``num_tasks`` partition tasks.

        ``receive(payload, spec)`` transforms a candidate result before
        validation — the shm transport maps a :class:`TableRef` back into a
        table here; raising makes the attempt a retryable failure.
        ``dispose(payload)`` is called on every result the runtime discards
        (late speculative losers, post-success arrivals, validation
        failures) so transports can release resources the payload owns.
        ``reap(spec)`` is called for each in-flight attempt lost to a
        broken process pool — the attempt may have died while holding a
        shared segment it never got to hand over.
        ``governance`` (a :class:`~repro.engine.governance.GovernanceContext`)
        is checked every scheduler tick, on every backend. When it fires,
        the run stops *salvaging*: live attempts are cancelled/abandoned,
        unfinished tasks are marked failed with kind ``governed``, and the
        typed error is returned on :attr:`TaskReport.aborted` rather than
        raised — completed payloads stay in the outcomes for
        survivors-only degradation.
        """
        if num_tasks < 1:
            raise PlanError(f"num_tasks must be >= 1, got {num_tasks}")
        self.abandoned.clear()
        tracer = obs_trace.current_tracer()
        if tracer is not None:
            fn = _traced_fn(fn)
        with self.pool.open(fn, num_tasks) as (make_executor, call, slots):
            return _Scheduler(
                policy=self.policy,
                base_seed=self.base_seed,
                abandoned=self.abandoned,
                outcomes=[TaskOutcome(partition=i) for i in range(num_tasks)],
                make_executor=make_executor,
                call=call,
                slots=slots,
                validate=validate,
                receive=receive,
                dispose=dispose,
                reap=reap,
                governance=governance,
                tracer=tracer,
            ).run()


@dataclass
class _Scheduler:
    """State and steps of one :meth:`TaskRuntime.run`.

    One loop serves every backend: admit queued launches into free slots,
    speculate on stragglers, wait for a finished attempt and settle it.
    Inline is the one-slot pool whose ``submit`` returns a finished future,
    so it settles, charges and aborts through the same code as the rest.
    """

    policy: RetryPolicy
    base_seed: int
    abandoned: Set[Tuple[int, int]]
    outcomes: List[TaskOutcome]
    make_executor: Callable[[], Any]
    #: What is submitted with each spec (the work function, or the fork
    #: trampoline that finds it in the worker's memory image).
    call: Callable[[TaskSpec], Any]
    #: Attempts the backend admits at once (None = it queues them itself).
    slots: Optional[int]
    validate: Optional[Callable[[Any, TaskSpec], None]]
    receive: Optional[Callable[[Any, TaskSpec], Any]]
    dispose: Optional[Callable[[Any], None]]
    reap: Optional[Callable[[TaskSpec], None]]
    governance: Any
    #: Active tracer of this run (None when tracing is off).
    tracer: Optional[obs_trace.Tracer]
    executor: Any = None
    live: Dict[Any, _Attempt] = field(default_factory=dict)  # future -> attempt
    #: (eligible_time, partition) launches waiting for a slot or for their
    #: retry backoff to elapse; first launches are eligible at once.
    queue: List[Tuple[float, int]] = field(init=False)
    #: Charged failures per partition.
    failures: Dict[int, int] = field(init=False)
    done: Set[int] = field(default_factory=set)
    #: Durations of the winning attempts: the straggler threshold's sample.
    durations: List[float] = field(default_factory=list)
    #: The governance error that stopped the run, once one has.
    abort: Optional[GovernanceError] = None

    def __post_init__(self):
        self.queue = [(0.0, outcome.partition) for outcome in self.outcomes]
        self.failures = {outcome.partition: 0 for outcome in self.outcomes}

    def run(self) -> TaskReport:
        policy = self.policy
        self.executor = self.make_executor()
        try:
            while (
                self.abort is None
                and len(self.done) < len(self.outcomes)
                and (self.live or self.queue)
            ):
                if self.governance is not None:
                    try:
                        self.governance.check()
                    except GovernanceError as exc:
                        self.abort = exc
                        break
                now = time.perf_counter()
                self._admit(now)
                self._speculate(now)
                if not self.live:
                    # Only backed-off retries remain; sleep until the next
                    # one (in poll-sized slices when governed, so a cancel
                    # or deadline is still noticed within one tick).
                    if self.queue:
                        pause = max(0.0, min(t for t, _ in self.queue) - now)
                        if self.governance is not None:
                            pause = min(pause, policy.poll_interval)
                        time.sleep(pause)
                    continue
                finished, _ = wait(
                    set(self.live), timeout=policy.poll_interval, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    attempt = self.live.pop(future, None)
                    if attempt is not None:  # None: pool recycled under this batch
                        self._settle(attempt)
            if self.abort is not None:
                self._abort_run()
        finally:
            # When a transport hook owns out-of-process resources (shared
            # segments named per attempt), wait for straggler workers to
            # exit: an abandoned attempt may still write its result segment
            # after losing, and the caller's post-run sweep can only see
            # segments that exist by the time workers are gone. Without
            # hooks, fire and forget: a process pool is torn down, and the
            # lease on a pool's resident threads retires them if one of
            # this run's abandoned attempts is still running on them.
            wait_for_stragglers = self.dispose is not None or self.reap is not None
            self.executor.shutdown(wait=wait_for_stragglers, cancel_futures=True)
        return TaskReport(outcomes=self.outcomes, aborted=self.abort)

    # -- launching ------------------------------------------------------------
    def _has_slot(self) -> bool:
        return self.slots is None or len(self.live) < self.slots

    def _admit(self, now: float) -> None:
        """Launch every queued task whose time has come, slots permitting."""
        waiting = []
        for eligible, partition in self.queue:
            if partition in self.done:
                continue
            if eligible <= now and self._has_slot():
                self._launch(partition, speculative=False)
            else:
                waiting.append((eligible, partition))
        self.queue = waiting

    def _launch(self, partition: int, speculative: bool) -> None:
        outcome = self.outcomes[partition]
        deadline = self._straggler_threshold()
        spec = TaskSpec(
            partition=partition,
            attempt=outcome.attempts,
            seed=task_seed(self.base_seed, partition, outcome.attempts),
            deadline=deadline,
        )
        outcome.attempts += 1
        if speculative:
            outcome.speculative += 1
            _LOG.info(
                "launching speculative duplicate for straggler partition %d "
                "(attempt %d, threshold %.3fs)",
                partition,
                spec.attempt,
                deadline if deadline is not None else float("nan"),
            )
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "task.attempt",
                partition=partition,
                attempt=spec.attempt,
                speculative=speculative,
            )
        started = time.perf_counter()  # before submit: the one-slot pool runs in it
        future = self.executor.submit(self.call, spec)
        self.live[future] = _Attempt(spec, future, started, speculative, span)

    def _straggler_threshold(self) -> Optional[float]:
        policy = self.policy
        if not policy.speculate or len(self.durations) < policy.speculation_quorum:
            return None
        ordered = sorted(self.durations)
        median = ordered[len(ordered) // 2]
        return max(policy.speculation_min_seconds, policy.speculation_multiplier * median)

    def _speculate(self, now: float) -> None:
        """Duplicate every task whose only live attempt is a straggler."""
        threshold = self._straggler_threshold()
        if threshold is None:
            return
        by_partition: Dict[int, List[_Attempt]] = {}
        for attempt in self.live.values():
            by_partition.setdefault(attempt.spec.partition, []).append(attempt)
        for partition, attempts in by_partition.items():
            if (
                partition not in self.done
                and len(attempts) == 1
                and self.outcomes[partition].speculative < self.policy.max_speculative
                and now - attempts[0].started > threshold
                and self._has_slot()
            ):
                self._launch(partition, speculative=True)

    # -- settling one finished attempt ----------------------------------------
    def _settle(self, attempt: _Attempt) -> None:
        """Unwrap → receive → validate → win, or charge the failure."""
        spec = attempt.spec
        partition = spec.partition
        key = (partition, spec.attempt)
        try:
            payload = attempt.future.result()
        except TaskCancelled:
            # Cooperative abort; never a failure. Relaunch (uncharged) if
            # that leaves an unfinished task with nothing running or queued.
            self._end_span(attempt.span, status="cancelled")
            self.abandoned.discard(key)
            if not (
                partition in self.done
                or self.failures[partition] >= self.policy.max_attempts
                or any(a.spec.partition == partition for a in self.live.values())
                or any(p == partition for _, p in self.queue)
            ):
                self.queue.append((0.0, partition))
            return
        except GovernanceError as exc:
            # A worker tripped the contract (e.g. a partition-local budget
            # blow) before the scheduler tick did; never retried — the run
            # stops salvaging.
            self._end_span(attempt.span, status="cancelled")
            self.abandoned.discard(key)
            if self.abort is None:
                self.abort = exc
            return
        except BrokenProcessPool as exc:
            self._end_span(attempt.span, status="error", error="pool broke")
            # The dead worker may have created its result segment before
            # dying; reap it by name — the ref never arrived.
            self._hook(self.reap, spec)
            self._recycle()
            self._charge(attempt, _wrap(exc, spec, kind="pool-broken"))
            return
        except Exception as exc:
            self._end_span(attempt.span, status="error", error=f"{type(exc).__name__}: {exc}")
            self.abandoned.discard(key)
            self._charge(attempt, _wrap(exc, spec))
            return

        if isinstance(payload, _TracedPayload):
            # Adopt the worker's span buffer under the attempt span.
            if self.tracer is not None:
                self.tracer.adopt(
                    payload.spans,
                    parent_id=attempt.span.span_id if attempt.span is not None else None,
                )
            payload = payload.payload
        if key in self.abandoned or partition in self.done:
            self._end_span(attempt.span, status="cancelled")
            self.abandoned.discard(key)
            self._hook(self.dispose, payload)
            return  # late loser; result discarded
        if self.receive is not None:
            try:
                payload = self.receive(payload, spec)
            except Exception as exc:
                self._end_span(attempt.span, status="error", error=f"receive: {exc}")
                self._charge(attempt, _wrap(exc, spec, kind="transport"))
                return
        if self.validate is not None:
            try:
                self.validate(payload, spec)
            except Exception as exc:
                error = TaskError(
                    f"result failed validation: {exc}",
                    partition=partition,
                    attempt=spec.attempt,
                    kind="validation",
                )
                error.__cause__ = exc
                self._end_span(attempt.span, status="error", error=str(error))
                self._hook(self.dispose, payload)
                self._charge(attempt, error)
                return
        self._win(attempt, payload)

    def _win(self, attempt: _Attempt, payload) -> None:
        """First finished attempt wins the task; its rivals are cancelled."""
        partition = attempt.spec.partition
        outcome = self.outcomes[partition]
        self.done.add(partition)
        outcome.succeeded = True
        outcome.payload = payload
        outcome.seconds = time.perf_counter() - attempt.started
        outcome.won_by_speculation = attempt.speculative
        self.durations.append(outcome.seconds)
        self._end_span(
            attempt.span,
            won=True,
            seconds=outcome.seconds,
            won_by_speculation=attempt.speculative,
        )
        # Cancel the losers: unstarted futures die now, running ones are
        # flagged for cooperative abort and otherwise ignored on arrival.
        # Their spans close *now*, at the cancellation decision — late
        # completions of abandoned attempts are dropped without further
        # observation.
        for other in [a for a in self.live.values() if a.spec.partition == partition]:
            self._cancel(other)

    def _charge(self, attempt: _Attempt, error: TaskError, backoff: bool = True) -> None:
        """The one place a failed attempt is counted and its retry queued."""
        partition = attempt.spec.partition
        if partition in self.done:
            return  # a loser failing changes nothing
        policy = self.policy
        outcome = self.outcomes[partition]
        outcome.errors.append(error)
        self.failures[partition] += 1
        failures = self.failures[partition]
        if failures < policy.max_attempts:
            outcome.retries += 1
            delay = policy.backoff_seconds(failures, attempt.spec.seed) if backoff else 0.0
            _LOG.warning(
                "partition %d attempt %d failed (%s); retry %d/%d in %.3fs",
                partition,
                attempt.spec.attempt,
                error.kind,
                failures,
                policy.max_attempts - 1,
                delay,
            )
            self.queue.append((time.perf_counter() + delay, partition))
        else:
            # Exhausted — the task fails when its last live attempt dies.
            _LOG.error(
                "partition %d permanently failed after %d attempt(s): %s",
                partition,
                failures,
                error,
            )

    # -- pool failure and governed abort --------------------------------------
    def _recycle(self) -> None:
        """Replace a broken process pool, charging each in-flight attempt
        one failure (their futures are dead with it), retried at once."""
        lost, self.live = self.live, {}
        _LOG.warning(
            "process pool broke; recycling (%d in-flight attempt(s) each charged one failure)",
            len(lost),
        )
        self.executor = self.make_executor()
        for attempt in lost.values():
            self._end_span(attempt.span, status="error", error="pool broke")
            self._hook(self.reap, attempt.spec)
            error = TaskError(
                "worker pool broke while the attempt was in flight",
                partition=attempt.spec.partition,
                attempt=attempt.spec.attempt,
                kind="pool-broken",
            )
            self._charge(attempt, error, backoff=False)

    def _cancel(self, attempt: _Attempt) -> None:
        """Stop wanting a live attempt: an unstarted future dies now, a
        running one is flagged in ``abandoned`` for cooperative abort."""
        attempt.future.cancel()
        self.abandoned.add((attempt.spec.partition, attempt.spec.attempt))
        self._end_span(attempt.span, status="cancelled")
        del self.live[attempt.future]

    def _abort_run(self) -> None:
        """Governance abort: cancel everything still in flight and mark
        every unfinished task failed with kind ``governed`` — not retried
        (the contract that stopped them holds for any retry) and counted as
        lost for survivors-only degradation.

        Running thread workers see the abandoned set, and fork workers see
        the token's shared mmap byte / the absolute monotonic deadline —
        all abort at their next operator boundary, so the straggler wait at
        shutdown stays short. Completed payloads remain in the outcomes.
        """
        exc = self.abort
        for attempt in list(self.live.values()):
            self._cancel(attempt)
        for outcome in self.outcomes:
            if outcome.succeeded:
                continue
            error = TaskError(
                f"{type(exc).__name__}: {exc}", partition=outcome.partition, kind="governed"
            )
            error.__cause__ = exc
            outcome.errors.append(error)
        _LOG.warning(
            "run aborted by governance (%s); %d/%d task(s) salvaged",
            exc.reason_code,
            len(self.done),
            len(self.outcomes),
        )

    # -- tracing and transport hooks ------------------------------------------
    def _end_span(self, span, status: str = "ok", **attributes) -> None:
        if span is not None and not span.closed:
            self.tracer.end(span, status=status, **attributes)

    @staticmethod
    def _hook(hook: Optional[Callable[[Any], None]], argument) -> None:
        """Hand a dropped result to ``dispose`` / a pool-lost attempt's spec
        to ``reap``, if the caller gave one. Never raises: cleanup must not
        mask the scheduling path."""
        if hook is None:
            return
        try:
            hook(argument)
        except Exception:
            _LOG.exception("transport hook %r failed; continuing", hook)
