"""Cross-worker trace stitching: attempt spans, speculation, fault injection.

The three invariants the observability layer promises the parallel runtime:

* worker-side spans (``task.work`` and everything under it) survive the
  trip back to the parent on **every** pool backend — including pickling
  across the process pool — and land under the right ``task.attempt``;
* under speculation, exactly the losing attempts close as ``cancelled``
  (at the cancellation decision, so the trace never holds open spans);
* under fault injection, the attempt spans are a complete, attempt-numbered
  ledger: their count equals tasks + retries + speculative launches as
  reported by the runtime's own metrics.
"""

import time

import pytest

from repro.algebra.aggregates import sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.engine.executor import Executor
from repro.obs.trace import Tracer, set_tracer, validate_chrome_trace
from repro.parallel import Fault, FaultPlan, ParallelOptions
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import RetryPolicy, TaskRuntime
from repro.samplers.uniform import UniformSpec

POOLS = ("inline", "thread", "process")
DEGREE = 4

#: Fast backoff, eager speculation — keeps retry-heavy tests quick.
FAST = RetryPolicy(
    backoff_base=0.005, backoff_max=0.05, speculation_min_seconds=0.1, poll_interval=0.005
)


@pytest.fixture(autouse=True)
def tracer():
    tracer = Tracer()
    set_tracer(tracer)
    yield tracer
    set_tracer(None)


def runtime(mode, workers=None, policy=FAST):
    return TaskRuntime(WorkerPool(mode, workers), policy=policy, base_seed=0)


def attempts_by_partition(tracer):
    grouped = {}
    for span in tracer.find("task.attempt"):
        grouped.setdefault(span.attributes["partition"], []).append(span)
    return grouped


class TestWorkerSpansSurviveEveryBackend:
    @pytest.mark.parametrize("mode", POOLS)
    def test_work_spans_adopted_under_attempts(self, tracer, mode):
        workers = None if mode == "inline" else DEGREE
        report = runtime(mode, workers).run(lambda spec: spec.partition * 10, DEGREE)
        assert not report.failed_partitions

        attempts = tracer.find("task.attempt")
        works = tracer.find("task.work")
        assert len(attempts) == DEGREE
        assert len(works) == DEGREE
        # Every worker-recorded span was spliced under its attempt span —
        # for the process pool that means it survived pickling.
        attempt_ids = {span.span_id for span in attempts}
        for work in works:
            assert work.parent_id in attempt_ids
            assert work.closed
        # Attempt and work agree on which execution this was.
        by_id = {span.span_id: span for span in attempts}
        for work in works:
            parent = by_id[work.parent_id]
            assert work.attributes["partition"] == parent.attributes["partition"]
            assert work.attributes["attempt"] == parent.attributes["attempt"]
        assert all(span.status == "ok" for span in attempts)
        assert tracer.unclosed() == []

    @pytest.mark.parametrize("mode", POOLS)
    def test_retried_attempt_spans_carry_error_then_ok(self, tracer, mode):
        def flaky(spec):
            if spec.partition == 1 and spec.attempt == 0:
                raise RuntimeError("transient")
            return spec.partition

        workers = None if mode == "inline" else DEGREE
        report = runtime(mode, workers).run(flaky, 2)
        assert not report.failed_partitions
        spans = sorted(
            attempts_by_partition(tracer)[1], key=lambda s: s.attributes["attempt"]
        )
        assert [s.status for s in spans] == ["error", "ok"]
        assert "RuntimeError" in spans[0].attributes["error"]
        assert tracer.unclosed() == []


class TestSpeculation:
    def test_loser_span_closed_as_cancelled(self, tracer):
        def slow_first_attempt(spec):
            if spec.partition == 1 and spec.attempt == 0:
                time.sleep(1.0)
            return (spec.partition, spec.attempt)

        report = runtime("thread", workers=5).run(slow_first_attempt, DEGREE)
        assert not report.failed_partitions
        assert report.outcomes[1].won_by_speculation

        spans = attempts_by_partition(tracer)[1]
        by_status = {s.status: s for s in spans}
        assert set(by_status) == {"ok", "cancelled"}
        winner, loser = by_status["ok"], by_status["cancelled"]
        assert winner.attributes["speculative"] is True
        assert winner.attributes["won"] is True
        assert winner.attributes["won_by_speculation"] is True
        assert loser.attributes["attempt"] == 0
        # The loser is closed at the cancellation decision — the straggler
        # is still sleeping, yet nothing in the trace stays open.
        assert loser.closed
        assert tracer.unclosed() == []
        assert validate_chrome_trace(tracer.to_chrome()) == []


class TestFaultInjectedLedger:
    @pytest.fixture()
    def uniform_query(self, sales_db):
        return (
            from_node(SamplerNode(scan(sales_db, "sales").node, UniformSpec(0.1, seed=42)))
            .groupby("s_item")
            .agg(sum_(col("s_amount"), "total"))
            .orderby("s_item")
            .build("traced_ft")
        )

    @pytest.mark.parametrize("pool", ("inline", "thread"))
    def test_attempt_spans_match_stats(self, tracer, sales_db, uniform_query, pool):
        fault_plan = FaultPlan(
            [Fault(0, 0, "crash"), Fault(2, 0, "crash"), Fault(2, 1, "crash")]
        )
        executor = Executor(
            sales_db,
            parallelism=DEGREE,
            parallel_options=ParallelOptions(
                pool=pool,
                min_partition_rows=1_000,
                max_workers=DEGREE + 1,
                retry=FAST,
                fault_plan=fault_plan,
            ),
        )
        result = executor.execute(uniform_query)
        metrics = result.parallel
        assert metrics.faults_injected == 3
        assert metrics.task_retries >= 3

        # The spans are a complete attempt ledger: one per launch.
        attempts = tracer.find("task.attempt")
        expected = metrics.tasks + metrics.task_retries + metrics.speculative_launches
        assert len(attempts) == expected

        # Attempt numbering per partition is dense from zero — the span
        # attributes reproduce FaultToleranceStats-level accounting exactly.
        for partition, spans in attempts_by_partition(tracer).items():
            numbers = sorted(s.attributes["attempt"] for s in spans)
            assert numbers == list(range(len(spans))), f"partition {partition}"

        # Crashed attempts closed as errors; every partition ends with a win.
        errors = [s for s in attempts if s.status == "error"]
        assert len(errors) == metrics.task_retries
        winners = [s for s in attempts if s.attributes.get("won")]
        assert len(winners) == metrics.tasks

        # The whole run hangs off one parallel.query root and exports clean.
        roots = tracer.find("parallel.query")
        assert len(roots) == 1
        assert roots[0].attributes["retries"] == metrics.task_retries
        assert tracer.unclosed() == []
        assert validate_chrome_trace(tracer.to_chrome()) == []
