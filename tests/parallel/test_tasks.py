"""Tests for the fault-tolerant task runtime (retries, speculation,
structured failures, pool hardening)."""

import os
import time

import pytest

from repro.errors import PlanError, TaskCancelled, TaskError
from repro.parallel.pool import WorkerPool, fork_payload
from repro.parallel.tasks import RetryPolicy, TaskRuntime, TaskSpec, task_seed

#: Policy tuned for test speed: fast backoff, eager speculation.
FAST = RetryPolicy(
    backoff_base=0.005, backoff_max=0.05, speculation_min_seconds=0.1, poll_interval=0.005
)


#: No second chances: the first error of every task is the one reported.
ONE_SHOT = RetryPolicy(max_attempts=1, speculate=False, poll_interval=0.005)


def runtime(mode="inline", workers=None, policy=FAST, seed=0):
    return TaskRuntime(WorkerPool(mode, workers), policy=policy, base_seed=seed)


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(1, 2, 3) == task_seed(1, 2, 3)

    def test_distinct_across_attempts_and_partitions(self):
        seeds = {task_seed(7, p, a) for p in range(8) for a in range(4)}
        assert len(seeds) == 32

    def test_positive_63_bit(self):
        s = task_seed(2**62, 10_000, 99)
        assert 0 <= s < 2**63


class TestRetryPolicy:
    def test_rejects_zero_attempts(self):
        with pytest.raises(PlanError):
            RetryPolicy(max_attempts=0)

    def test_rejects_shrinking_backoff(self):
        with pytest.raises(PlanError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        waits = [policy.backoff_seconds(f, seed=0) for f in (1, 2, 3, 4)]
        assert waits[0] < waits[1] < waits[2]
        assert all(w <= 0.3 * 1.25 for w in waits)

    def test_jitter_is_deterministic_in_seed(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(1, seed=42) == policy.backoff_seconds(1, seed=42)
        assert policy.backoff_seconds(1, seed=42) != policy.backoff_seconds(1, seed=43 << 7)


BACKENDS = ("inline", "thread", "process")


@pytest.mark.parametrize("mode", BACKENDS)
class TestRuntime:
    """One scheduler, three pools: what is observed comes back in payloads
    and outcomes, since a process worker's side effects stay in its fork."""

    def test_all_succeed(self, mode):
        report = runtime(mode, workers=2).run(lambda spec: spec.partition * 10, 4)
        assert not report.failed_partitions
        assert report.payloads == [0, 10, 20, 30]
        assert report.total_retries == 0

    def test_retry_then_success(self, mode):
        report = runtime(mode, workers=2).run(_fail_even_first_attempt, 4)
        assert not report.failed_partitions
        assert report.payloads == [0, 1, 2, 3]
        assert report.total_retries == 2
        outcome = report.outcomes[2]
        assert outcome.attempts == 2
        assert outcome.errors[0].partition == 2
        assert outcome.errors[0].attempt == 0

    def test_permanent_failure_reported_not_raised(self, mode):
        def doomed(spec):
            if spec.partition == 1:
                raise ValueError("always")
            return spec.partition

        report = runtime(mode, workers=3).run(doomed, 3)
        assert report.failed_partitions == (1,)
        outcome = report.outcomes[1]
        assert not outcome.succeeded
        assert outcome.attempts == FAST.max_attempts
        # retries only count re-launches, not the final failure
        assert outcome.retries == FAST.max_attempts - 1
        assert len(outcome.errors) == FAST.max_attempts
        assert all(isinstance(e, TaskError) for e in outcome.errors)
        assert "[partition 1" in str(outcome.errors[0])

    def test_validation_failure_is_retried(self, mode):
        def validate(payload, spec):
            if payload == 0:  # attempt 0 "corrupt", attempt 1 fine
                raise ValueError("corrupt payload")

        report = runtime(mode, workers=2).run(lambda spec: spec.attempt, 2, validate=validate)
        assert not report.failed_partitions
        assert report.payloads == [1, 1]
        assert report.outcomes[0].attempts == 2
        assert report.outcomes[0].errors[0].kind == "validation"

    def test_cancelled_attempts_are_not_charged(self, mode):
        def work(spec):
            if spec.attempt == 0:
                raise TaskCancelled("scheduler asked us to stop")
            return "ok"

        report = runtime(mode, workers=2).run(work, 2)
        assert not report.failed_partitions
        assert report.total_retries == 0
        for outcome in report.outcomes:
            assert outcome.attempts == 2
            assert outcome.errors == []

    def test_deterministic_seeds_per_attempt(self, mode):
        first = runtime(mode, workers=2, seed=9).run(_fail_even_first_attempt_seed, 3)
        again = runtime(mode, workers=2, seed=9).run(_fail_even_first_attempt_seed, 3)
        assert first.payloads == again.payloads
        # Each partition's winning attempt ran under its own (partition,
        # attempt) seed, whatever the backend.
        assert first.payloads == [task_seed(9, 0, 1), task_seed(9, 1, 0), task_seed(9, 2, 1)]

    def test_foreign_exceptions_arrive_as_task_errors(self, mode):
        def boom(spec):
            raise KeyError(spec.partition)

        report = runtime(mode, workers=2, policy=ONE_SHOT).run(boom, 2)
        assert report.failed_partitions == (0, 1)
        for partition, error in enumerate(report.errors):
            assert type(error) is TaskError
            assert (error.partition, error.attempt, error.kind) == (partition, 0, "exception")
            assert isinstance(error.__cause__, KeyError)

    def test_repro_errors_keep_their_type(self, mode):
        def planned_failure(spec):
            if spec.partition == 0:
                raise PlanError("bad plan")
            raise TaskError("segment gone", partition=1, attempt=0, kind="transport")

        plan_error, task_error = runtime(mode, workers=2, policy=ONE_SHOT).run(
            planned_failure, 2
        ).errors
        # A library error travels as the cause, type intact; a TaskError is
        # reported as raised, not wrapped a second time.
        assert type(plan_error.__cause__) is PlanError
        assert "bad plan" in str(plan_error)
        assert task_error.kind == "transport"
        assert str(task_error) == "[partition 1, attempt 0] segment gone"


class TestConcurrentRuntime:
    """Speculation needs a second slot, so these stay on the thread pool."""

    def test_straggler_speculation_first_result_wins(self):
        def slow_first_attempt(spec):
            if spec.partition == 1 and spec.attempt == 0:
                time.sleep(1.0)
            return (spec.partition, spec.attempt)

        start = time.perf_counter()
        report = runtime("thread", workers=5).run(slow_first_attempt, 4)
        elapsed = time.perf_counter() - start
        assert not report.failed_partitions
        assert report.speculative_launches >= 1
        assert report.outcomes[1].won_by_speculation
        assert report.payloads[1] == (1, 1)  # the duplicate's attempt won
        assert elapsed < 0.9  # did not wait out the straggler

    def test_speculation_can_be_disabled(self):
        policy = RetryPolicy(
            backoff_base=0.005, speculate=False, speculation_min_seconds=0.05,
            poll_interval=0.005,
        )

        def slow(spec):
            if spec.partition == 0 and spec.attempt == 0:
                time.sleep(0.3)
            return spec.partition

        report = runtime("thread", workers=4, policy=policy).run(slow, 3)
        assert not report.failed_partitions
        assert report.speculative_launches == 0


class TestSingleWorkerShortCircuit:
    def test_process_with_one_worker_runs_in_parent(self):
        pids = []
        report = TaskRuntime(WorkerPool("process", 1), policy=FAST).run(
            lambda spec: pids.append(os.getpid()) or spec.partition, 2
        )
        assert not report.failed_partitions
        assert pids == [os.getpid()] * 2  # no fork happened


class TestPoolHardening:
    def test_reentrant_fork_payload_raises(self):
        with fork_payload(lambda x: x):
            with pytest.raises(PlanError, match="re-entrant process-mode"):
                with fork_payload(lambda x: x):
                    pass

    def test_payload_released_after_use(self):
        with fork_payload(lambda x: x):
            pass
        with fork_payload(lambda x: x):  # no residue; lock released
            pass

    def test_reentrant_process_run_raises(self):
        with fork_payload(lambda x: x):  # simulate an ongoing process run
            with pytest.raises(PlanError, match="re-entrant process-mode"):
                runtime("process", workers=2).run(lambda spec: spec.partition, 2)
        # The refused run left the payload to its holder and the lock free.
        assert not runtime("process", workers=2).run(_fail_even_first_attempt, 2).failed_partitions


# Module-level so the process pool's fork image can reach them; keyed on the
# attempt counter so the failure is deterministic across forked children.
def _fail_even_first_attempt(spec: TaskSpec):
    if spec.partition % 2 == 0 and spec.attempt == 0:
        raise RuntimeError("transient even-partition failure")
    return spec.partition


def _fail_even_first_attempt_seed(spec: TaskSpec):
    _fail_even_first_attempt(spec)
    return spec.seed
