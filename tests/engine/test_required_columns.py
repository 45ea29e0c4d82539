"""The required-columns pass: every operator carries exactly what the plan
above it reads, and narrowing never changes an answer.

For every TPC-DS query (baseline and Quickr plan) each sub-plan is compiled
with the requirement the pass derived for its root — the situation of a
partition task's plan — and compared with the full-width recursive oracle
of :mod:`tests.engine.test_compiled_equivalence`, restricted to those
columns, bit for bit. Targeted plans then pin the per-operator rules.
"""

import numpy as np
import pytest

from repro.algebra.addressing import walk_with_addresses
from repro.algebra.aggregates import count, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import Func, col, lit
from repro.algebra.logical import Project, SamplerNode
from repro.core.rewrite import WeightedAggregate
from repro.engine.executor import Executor
from repro.engine.operators import CI_SUFFIX
from repro.engine.physical import compile_plan, required_columns
from repro.errors import PlanError
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.samplers.distinct import DistinctSpec
from repro.samplers.universe import UniverseSpec
from tests.engine.test_compiled_equivalence import (
    QUERY_NAMES,
    ReferenceExecutor,
    plans_for,
)


@pytest.fixture(scope="module")
def planner(tiny_tpcds):
    return QuickrPlanner(tiny_tpcds)


def declared(table):
    """Data columns a table carries, confidence-interval columns aside
    (an aggregate appends those; no logical schema declares them)."""
    return tuple(c for c in table.data_column_names() if not c.endswith(CI_SUFFIX))


def narrowed_equals_oracle(plan, database, context):
    """Every sub-plan, compiled for what the plan above reads of it, yields
    exactly those columns of the oracle's full-width answer."""
    required = required_columns(plan)
    for address, node in walk_with_addresses(plan):
        needed = required[address]
        assert needed, f"{context}@{address}: a node must keep a column"
        assert set(needed) <= set(node.output_columns()), f"{context}@{address}"
        output, _, _ = compile_plan(node, database, root_required=needed).execute(database)
        table = output.built()
        assert declared(table) == needed, f"{context}@{address}"
        reference, _, _ = ReferenceExecutor(database).execute(node)
        assert table.num_rows == reference.num_rows, f"{context}@{address}"
        for name in needed:
            np.testing.assert_array_equal(
                table.column(name), reference.column(name), err_msg=f"{context}@{address}:{name}"
            )


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_tpcds_subplans_carry_exactly_what_is_read(planner, tiny_tpcds, name):
    for kind, plan in plans_for(planner, tiny_tpcds, name).items():
        narrowed_equals_oracle(plan, tiny_tpcds, f"{name}/{kind}")


def test_q14_reads_three_of_twenty_six_join_columns(planner, tiny_tpcds):
    plan = plans_for(planner, tiny_tpcds, "q14")["baseline"]
    required = required_columns(plan)
    assert set(required[(0,)]) == {"d_year", "ss_customer_sk", "cs_sales_price"}
    # Join keys are read below the join, not copied through it.
    assert "ss_sold_date_sk" in required[(0, 0, 0)]
    assert "ss_sold_date_sk" not in required[(0, 0)]


class TestPerOperatorRules:
    def test_root_requirement_must_be_produced(self, sales_db):
        with pytest.raises(PlanError, match="does not produce"):
            required_columns(scan(sales_db, "item").node, ("nope",))

    def test_union_children_agree_on_one_schema(self, sales_db):
        # One child filters on a column the other never reads: both must
        # still hand the union the same columns.
        filtered = scan(sales_db, "sales").where(col("s_qty") > 10)
        plan = filtered.union_all(scan(sales_db, "sales")).select("s_item", "s_amount").node
        required = required_columns(plan)
        assert required[(0, 0)] == required[(0, 1)] == ("s_item", "s_amount")
        assert required[(0, 0, 0)] == ("s_item", "s_qty", "s_amount")
        narrowed_equals_oracle(plan, sales_db, "union")

    def test_project_evaluates_only_what_is_read(self, sales_db):
        derived = scan(sales_db, "sales").derive(
            revenue=col("s_qty") * col("s_amount"), late=col("s_day") > 300
        )
        plan = derived.groupby("s_item").agg(sum_(col("revenue"), "total")).node
        required = required_columns(plan)
        assert required[(0,)] == ("s_item", "revenue")
        assert required[(0, 0)] == ("s_item", "s_qty", "s_amount")
        project = compile_plan(plan, sales_db).ops[1]
        assert isinstance(project.node, Project) and project.columns == ("s_item", "revenue")
        narrowed_equals_oracle(plan, sales_db, "project")

    def test_orderby_key_is_read_below_and_shed_above(self, sales_db):
        plan = scan(sales_db, "item").orderby("i_price").limit(5).select("i_item").node
        required = required_columns(plan)
        assert required[(0,)] == required[(0, 0)] == ("i_item",)
        assert required[(0, 0, 0)] == ("i_item", "i_price")
        orderby = compile_plan(plan, sales_db).ops[1]
        assert orderby.opcode == "orderby" and orderby.drop == ("i_price",)
        narrowed_equals_oracle(plan, sales_db, "orderby")

    @pytest.mark.parametrize("how", ("left", "right"))
    def test_outer_joins(self, sales_db, how):
        items = scan(sales_db, "item").where(col("i_cat") < 3)
        joined = scan(sales_db, "returns").join(items, on=[("r_item", "i_item")], how=how)
        plan = joined.groupby("i_cat").agg(sum_(col("r_amount"), "refunds"), count("n")).node
        required = required_columns(plan)
        assert required[(0,)] == ("r_amount", "i_cat")
        assert required[(0, 0)] == ("r_item", "r_amount")
        narrowed_equals_oracle(plan, sales_db, how)

    def test_distinct_sampler_stratified_on_an_expression(self, sales_db):
        bucket = Func("bucket", np.floor, [col("s_amount") / lit(50.0)])
        sampled = SamplerNode(
            scan(sales_db, "sales").node, DistinctSpec(("s_cust", bucket), delta=3, p=0.1, seed=5)
        )
        plan = from_node(sampled).groupby("s_item").agg(sum_(col("s_qty"), "units")).node
        required = required_columns(plan)
        assert required[(0,)] == ("s_item", "s_qty")
        assert required[(0, 0)] == ("s_item", "s_cust", "s_qty", "s_amount")
        sampler = compile_plan(plan, sales_db).ops[1]
        assert sampler.drop == ("s_cust", "s_amount")
        narrowed_equals_oracle(plan, sales_db, "distinct-expr")

    def test_universe_variance_aggregate_keeps_its_universe_columns(self, sales_db):
        sampled = SamplerNode(
            scan(sales_db, "sales").node, UniverseSpec(("s_cust",), p=0.25, seed=9)
        )
        plan = WeightedAggregate(
            sampled,
            ("s_item",),
            (sum_(col("s_amount"), "total"),),
            compute_ci=True,
            universe_variance=(("s_cust",), 0.25),
        )
        # Nothing but the variance estimator reads s_cust above the sampler.
        assert required_columns(plan)[(0,)] == ("s_item", "s_cust", "s_amount")
        reference, _, _ = ReferenceExecutor(sales_db).execute(plan)
        answer = Executor(sales_db).execute(plan).table
        assert answer.column_names == reference.column_names
        for name in reference.column_names:
            np.testing.assert_array_equal(answer.column(name), reference.column(name))


class TestPlansThatReadNoColumn:
    """``COUNT(*)`` reads no data column; the table it counts must still
    have its rows (nothing reads lineage through an aggregate, so no scan
    attaches a reserved column to hold the count either)."""

    @staticmethod
    def executor(database, degree):
        if degree == 1:
            return Executor(database)
        return Executor(
            database,
            parallelism=degree,
            parallel_options=ParallelOptions(pool="thread", min_partition_rows=1_000),
        )

    @pytest.mark.parametrize("degree", (1, 2))
    def test_scalar_and_grouped_count_star(self, sales_db, degree):
        joined = scan(sales_db, "sales").join(scan(sales_db, "item"), on=[("s_item", "i_item")])
        executor = self.executor(sales_db, degree)
        sales = sales_db.table("sales")

        scalar = joined.agg(count("n")).node
        assert required_columns(scalar)[(0,)] == ("s_item",)  # the first, kept to count by
        np.testing.assert_array_equal(
            executor.execute(scalar).table.column("n"), [sales.num_rows]
        )
        over_scan = scan(sales_db, "sales").agg(count("n")).node
        np.testing.assert_array_equal(
            executor.execute(over_scan).table.column("n"), [sales.num_rows]
        )
        # A projection drops lineage: nothing but the kept column is left.
        projected = scan(sales_db, "sales").select("s_qty", "s_day").agg(count("n")).node
        assert required_columns(projected)[(0,)] == ("s_qty",)
        np.testing.assert_array_equal(
            executor.execute(projected).table.column("n"), [sales.num_rows]
        )

        grouped = executor.execute(joined.groupby("i_cat").agg(count("n")).node).table
        cats = sales_db.table("item").column("i_cat")[sales.column("s_item")]
        order = np.argsort(grouped.column("i_cat"))
        np.testing.assert_array_equal(grouped.column("n")[order], np.bincount(cats))
