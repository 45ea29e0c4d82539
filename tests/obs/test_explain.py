"""Tests for ``explain-analyze``: rendering and address agreement.

The explain tree, the operator-metrics list and the trace spans are three
views of one execution; they must all key on the same structural node
addresses, for every query in the workload.
"""

import pytest

from repro.algebra.addressing import format_address, plan_fingerprint
from repro.algebra.aggregates import sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.engine.executor import Executor
from repro.obs.explain import explain_analyze, render_explain
from repro.obs.trace import Tracer, set_tracer
from repro.optimizer.planner import QuickrPlanner
from repro.workloads.tpcds import queries


@pytest.fixture(scope="module")
def stack(tiny_tpcds):
    return QuickrPlanner(tiny_tpcds), Executor(tiny_tpcds)


class TestRendering:
    def test_every_query_renders(self, tiny_tpcds, stack):
        planner, executor = stack
        for query in queries(tiny_tpcds):
            text = explain_analyze(planner, executor, query)
            assert f"explain analyze: {query.name}" in text
            assert "plan fingerprint" in text
            assert "address" in text and "actual in -> out" in text
            assert "cols kept/total" in text
            assert "answer:" in text
            assert ("approximable" in text) or ("unapproximable" in text)

    def test_tree_carries_measurements_and_fingerprint(self, tiny_tpcds, stack):
        planner, executor = stack
        query = next(q for q in queries(tiny_tpcds) if q.name == "q02")
        result = planner.plan(query)
        execution = executor.execute(result.plan)
        text = render_explain(planner, result, execution)
        assert plan_fingerprint(result.plan)[:12] in text
        # The root address and measured row counts appear in the table.
        assert "\nr " in text or "\nr  " in text
        for metric in execution.operators:
            assert format_address(metric.address) in text
            assert f"{metric.rows_in:,} -> {metric.rows_out:,}" in text

    def test_approximable_query_reports_sampler_telemetry(self, sales_db):
        # The dense sales schema (500 rows/group) reliably clears the
        # accuracy bar, so ASALQA places a sampler and the telemetry
        # section renders regardless of TPC-DS scale.
        planner, executor = QuickrPlanner(sales_db), Executor(sales_db)
        query = (
            scan(sales_db, "sales")
            .groupby("s_item")
            .agg(sum_(col("s_amount"), "total"))
            .build("sales_total")
        )
        result = planner.plan(query)
        if not result.approximable:
            pytest.skip("sales plan not approximable under current cost model")
        text = render_explain(planner, result, executor.execute(result.plan))
        assert "samplers (decision | runtime telemetry):" in text
        assert "target p=" in text and "effective rate=" in text
        assert "C1=" in text and "C2=" in text


class TestAddressAgreement:
    def test_trace_spans_match_compiled_plan_addresses(self, tiny_tpcds, stack):
        planner, executor = stack
        for query in queries(tiny_tpcds):
            plan = planner.plan(query).plan
            physical, _ = executor.compile(plan)
            expected = {
                format_address(address) for address in physical.address_to_index
            }
            tracer = Tracer()
            set_tracer(tracer)
            try:
                executor.execute(plan)
            finally:
                set_tracer(None)
            op_spans = [s for s in tracer.spans if s.name.startswith("op.")]
            traced = {s.attributes["address"] for s in op_spans}
            assert traced == expected, query.name
            # Each span says how many data columns its operator carried.
            assert {s.attributes["address"]: s.attributes["columns"] for s in op_spans} == {
                format_address(op.address): len(op.columns) for op in physical.ops
            }, query.name
            # One span per physical operator, all closed ok.
            assert len(op_spans) == physical.num_operators
            assert all(s.status == "ok" and s.closed for s in op_spans)

    def test_operator_metrics_share_span_addresses(self, tiny_tpcds, stack):
        planner, executor = stack
        plan = planner.plan(next(iter(queries(tiny_tpcds)))).plan
        tracer = Tracer()
        set_tracer(tracer)
        try:
            execution = executor.execute(plan)
        finally:
            set_tracer(None)
        span_addresses = {
            s.attributes["address"] for s in tracer.spans if s.name.startswith("op.")
        }
        assert {
            format_address(m.address) for m in execution.operators
        } == span_addresses
