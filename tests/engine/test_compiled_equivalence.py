"""Refactor acceptance: the compiled iterative executor is observationally
identical to the pre-refactor recursive executor.

``ReferenceExecutor`` below replicates the old execution semantics exactly
(recursive dispatch, per-run ``id(node)``-keyed cardinalities, lineage via a
per-run ``scan_indices`` walk). Every TPC-DS query — both the Baseline plan
and the Quickr (sampled) plan — must produce a bit-identical answer table
and an identical :class:`PlanCost` under the compiled path, serially and at
``parallelism=4``.
"""

import numpy as np
import pytest

from repro.algebra.addressing import walk_with_addresses
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
from repro.engine.aggregate import decimal_scales
from repro.engine.costmodel import cost_plan
from repro.engine.executor import Executor
from repro.engine.table import rowid_column_name
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.samplers.distinct import DistinctSpec
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name
from tests.engine.test_keys import ref_join

QUERY_NAMES = tuple(sorted(QUERY_BUILDERS))


class ReferenceExecutor:
    """The pre-refactor recursive executor, kept verbatim as the oracle."""

    def __init__(self, database, config=None):
        self.database = database
        self.config = config
        self._scan_indices = {}

    @staticmethod
    def scan_indices(plan):
        indices = {}
        for node in plan.walk():
            if isinstance(node, Scan):
                if id(node) in indices:
                    return {}
                indices[id(node)] = len(indices)
        return indices

    def execute(self, plan):
        cardinalities = {}
        self._scan_indices = self.scan_indices(plan)
        table = self._run(plan, cardinalities)
        cost = cost_plan(plan, lambda node, address: cardinalities[id(node)], self.config)
        return table.drop_lineage(), cost, cardinalities

    def _run(self, node, cardinalities):
        table = self._dispatch(node, cardinalities)
        cardinalities[id(node)] = table.num_rows
        return table

    def _dispatch(self, node: LogicalNode, cardinalities):
        if isinstance(node, Scan):
            out = self.database.table(node.table).project(node.output_columns())
            index = self._scan_indices.get(id(node))
            if index is not None and not out.has_lineage():
                out = out.with_columns(
                    {rowid_column_name(index): np.arange(out.num_rows, dtype=np.int64)}
                )
            return out
        if isinstance(node, Select):
            return operators.execute_select(self._run(node.child, cardinalities), node.predicate)
        if isinstance(node, Project):
            return operators.execute_project(self._run(node.child, cardinalities), node.mapping)
        if isinstance(node, SamplerNode):
            return node.spec.apply(self._run(node.child, cardinalities))
        if isinstance(node, Join):
            left = self._run(node.left, cardinalities)
            right = self._run(node.right, cardinalities)
            # Built from the reference pairs: neither the probe kernel nor
            # the lazy join the compiled plans run.
            return ref_join(left, right, node.left_keys, node.right_keys, node.how)
        if isinstance(node, Aggregate):
            return operators.execute_aggregate(
                self._run(node.child, cardinalities),
                node.group_by,
                node.aggs,
                compute_ci=getattr(node, "compute_ci", False),
                universe_rescale=getattr(node, "universe_rescale", None),
                universe_variance=getattr(node, "universe_variance", None),
                # The one schema input the old executor had no notion of:
                # sums of declared decimal columns are summed in cents.
                decimals=decimal_scales(node, self.database),
            )
        if isinstance(node, OrderBy):
            return operators.execute_orderby(
                self._run(node.child, cardinalities), node.keys, node.descending
            )
        if isinstance(node, Limit):
            return operators.execute_limit(self._run(node.child, cardinalities), node.n)
        if isinstance(node, UnionAll):
            return operators.execute_union_all(
                [self._run(child, cardinalities) for child in node.children]
            )
        raise AssertionError(f"reference executor cannot handle {type(node).__name__}")


def reference_run(database, plan):
    """The oracle's answer and per-address cardinalities: the built side a
    compiled run, whose fan-out joins stay lazy, must equal."""
    table, _, cards = ReferenceExecutor(database).execute(plan)
    return table, {address: cards[id(node)] for address, node in walk_with_addresses(plan)}


@pytest.fixture(scope="module")
def planner(tiny_tpcds):
    return QuickrPlanner(tiny_tpcds)


@pytest.fixture(scope="module")
def compiled_executor(tiny_tpcds):
    # One executor for the whole suite: later queries hit the plan cache,
    # so equivalence is asserted for cached compilations too.
    return Executor(tiny_tpcds)


def plans_for(planner, tiny_tpcds, name):
    query = query_by_name(tiny_tpcds, name)
    baseline = planner.plan_baseline(query).plan
    quickr = planner.plan(query).plan
    return {"baseline": baseline, "quickr": quickr}


def assert_tables_bit_identical(reference, compiled, context):
    assert reference.column_names == compiled.column_names, context
    assert reference.num_rows == compiled.num_rows, context
    for column in reference.column_names:
        np.testing.assert_array_equal(
            reference.column(column), compiled.column(column), err_msg=f"{context}:{column}"
        )


def assert_same_rows(reference, compiled, context):
    """Row-order-normalized comparison with floating-point tolerance.

    The parallel merge orders groups by first appearance across partitions
    and two-phase aggregation reassociates sums, so group order and the last
    few bits can legitimately differ from a serial run (they did before this
    refactor too — the compiled parallel path is bit-identical to the
    pre-refactor parallel path, which this tolerance reflects)."""
    assert reference.column_names == compiled.column_names, context
    assert reference.num_rows == compiled.num_rows, context
    ref_order = np.lexsort([reference.column(c) for c in reversed(reference.column_names)])
    got_order = np.lexsort([compiled.column(c) for c in reversed(compiled.column_names)])
    for column in reference.column_names:
        ref = reference.column(column)[ref_order]
        got = compiled.column(column)[got_order]
        if np.issubdtype(ref.dtype, np.floating):
            np.testing.assert_allclose(
                ref, got, rtol=1e-9, atol=1e-12, err_msg=f"{context}:{column}"
            )
        else:
            np.testing.assert_array_equal(ref, got, err_msg=f"{context}:{column}")


@pytest.mark.parametrize("name", QUERY_NAMES)
class TestSerialEquivalence:
    def test_bit_identical_answers_and_costs(self, planner, compiled_executor, tiny_tpcds, name):
        for kind, plan in plans_for(planner, tiny_tpcds, name).items():
            ref_table, ref_cost, ref_cards = ReferenceExecutor(
                tiny_tpcds, compiled_executor.config
            ).execute(plan)
            result = compiled_executor.execute(plan)
            assert_tables_bit_identical(ref_table, result.table, f"{name}/{kind}")
            assert result.cost == ref_cost, f"{name}/{kind}"
            # Same multiset of measured cardinalities, different key space.
            assert sorted(result.cardinalities.values()) == sorted(ref_cards.values())


@pytest.mark.parametrize("name", QUERY_NAMES)
class TestParallelEquivalence:
    def test_parallel_matches_reference(self, planner, compiled_executor, tiny_tpcds, name):
        executor = Executor(
            tiny_tpcds,
            parallelism=4,
            parallel_options=ParallelOptions(pool="inline", min_partition_rows=1_000),
        )
        for kind, plan in plans_for(planner, tiny_tpcds, name).items():
            if any(
                isinstance(n, SamplerNode) and isinstance(n.spec, DistinctSpec)
                for n in plan.walk()
            ):
                # Distinct samplers draw fresh per-partition randomness; the
                # parallel suite covers their stratification guarantee.
                continue
            ref_table, _, _ = ReferenceExecutor(tiny_tpcds, executor.config).execute(plan)
            result = executor.execute(plan)
            if result.parallel is not None and result.parallel.strategy == "serial-fallback":
                assert_tables_bit_identical(ref_table, result.table, f"{name}/{kind}")
            else:
                assert_same_rows(ref_table, result.table, f"{name}/{kind}")
