"""Unit tests for logical plan nodes: schema derivation and invariants."""

import pytest

from repro.algebra.addressing import canonical_plan_form, plan_fingerprint
from repro.algebra.aggregates import count, sum_
from repro.algebra.expressions import col
from repro.algebra.logical import (
    Aggregate,
    Join,
    Limit,
    OrderBy,
    Project,
    SamplerNode,
    Scan,
    Select,
    UnionAll,
)
from repro.core.sampler_state import SamplerState
from repro.errors import PlanError, SchemaError


def scan_t():
    return Scan("t", ("a", "b", "c"))


def scan_u():
    return Scan("u", ("x", "y"))


class TestScan:
    def test_output_columns(self):
        assert scan_t().output_columns() == ("a", "b", "c")

    def test_requires_columns(self):
        with pytest.raises(PlanError):
            Scan("t", ())

    def test_no_children(self):
        with pytest.raises(PlanError):
            scan_t().with_children([scan_u()])


class TestSelect:
    def test_passthrough_schema(self):
        node = Select(scan_t(), col("a") > 1)
        assert node.output_columns() == ("a", "b", "c")

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            Select(scan_t(), col("zz") > 1)

    def test_with_children(self):
        node = Select(scan_t(), col("a") > 1)
        rebuilt = node.with_children([scan_t()])
        assert rebuilt.key() == node.key()


class TestProject:
    def test_output_is_mapping_keys(self):
        node = Project(scan_t(), {"a2": col("a"), "s": col("a") + col("b")})
        assert node.output_columns() == ("a2", "s")

    def test_empty_mapping_rejected(self):
        with pytest.raises(PlanError):
            Project(scan_t(), {})

    def test_unknown_input_rejected(self):
        with pytest.raises(SchemaError):
            Project(scan_t(), {"q": col("nope")})

    def test_identity_passthrough(self):
        node = Project(scan_t(), {"a2": col("a"), "s": col("a") + col("b")})
        assert node.identity_passthrough() == {"a2": "a"}


class TestJoin:
    def test_schema_concatenates(self):
        node = Join(scan_t(), scan_u(), ["a"], ["x"])
        assert node.output_columns() == ("a", "b", "c", "x", "y")

    def test_full_outer_rejected(self):
        with pytest.raises(PlanError):
            Join(scan_t(), scan_u(), ["a"], ["x"], how="full")

    def test_key_count_mismatch(self):
        with pytest.raises(PlanError):
            Join(scan_t(), scan_u(), ["a", "b"], ["x"])

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            Join(scan_t(), scan_u(), ["nope"], ["x"])

    def test_column_collision_rejected(self):
        with pytest.raises(SchemaError):
            Join(scan_t(), Scan("t2", ("a", "z")), ["a"], ["z"])


class TestAggregate:
    def test_schema(self):
        node = Aggregate(scan_t(), ("a",), [sum_(col("b"), "total"), count("n")])
        assert node.output_columns() == ("a", "total", "n")

    def test_scalar_aggregate(self):
        node = Aggregate(scan_t(), (), [count("n")])
        assert node.output_columns() == ("n",)

    def test_needs_aggs(self):
        with pytest.raises(PlanError):
            Aggregate(scan_t(), ("a",), [])

    def test_alias_collision_with_group(self):
        with pytest.raises(PlanError):
            Aggregate(scan_t(), ("a",), [count("a")])

    def test_duplicate_aliases(self):
        with pytest.raises(PlanError):
            Aggregate(scan_t(), (), [count("n"), sum_(col("b"), "n")])

    def test_unknown_group_column(self):
        with pytest.raises(SchemaError):
            Aggregate(scan_t(), ("zz",), [count("n")])


class TestOrderLimitUnion:
    def test_orderby_schema(self):
        node = OrderBy(scan_t(), ("a",), descending=True)
        assert node.output_columns() == ("a", "b", "c")
        assert node.descending

    def test_orderby_needs_keys(self):
        with pytest.raises(PlanError):
            OrderBy(scan_t(), ())

    def test_limit_positive(self):
        with pytest.raises(PlanError):
            Limit(scan_t(), 0)

    def test_union_schema_match(self):
        node = UnionAll([scan_t(), Scan("t2", ("a", "b", "c"))])
        assert node.output_columns() == ("a", "b", "c")

    def test_union_schema_mismatch(self):
        with pytest.raises(SchemaError):
            UnionAll([scan_t(), scan_u()])

    def test_union_needs_two(self):
        with pytest.raises(PlanError):
            UnionAll([scan_t()])


class TestSamplerNode:
    def test_holds_state(self):
        state = SamplerState(strat_cols=frozenset({"a"}))
        node = SamplerNode(scan_t(), state)
        assert node.output_columns() == ("a", "b", "c")
        assert node.spec is state

    def test_spec_needs_key(self):
        with pytest.raises(PlanError):
            SamplerNode(scan_t(), object())


class TestTreeHelpers:
    def test_walk_and_counts(self):
        plan = Aggregate(
            Select(Join(scan_t(), scan_u(), ["a"], ["x"]), col("b") > 0),
            ("a",),
            [count("n")],
        )
        kinds = [type(n).__name__ for n in plan.walk()]
        assert kinds[0] == "Aggregate"
        assert plan.num_operators() == 5
        assert plan.depth() == 4

    def test_key_identity_for_equal_plans(self):
        p1 = Select(scan_t(), col("a") > 1)
        p2 = Select(scan_t(), col("a") > 1)
        assert p1.key() == p2.key()


def _one_of_each():
    from repro.core.rewrite import WeightedAggregate

    joined = Join(scan_t(), scan_u(), ["a"], ["x"])
    return [
        Select(scan_t(), col("a") > 1),
        Project(scan_t(), {"a": col("a"), "d": col("b") + col("c")}),
        joined,
        Aggregate(joined, ("a",), [count("n")]),
        WeightedAggregate(joined, ("a",), [sum_(col("y"), "s")], universe_rescale={"s": 2.0}),
        OrderBy(scan_t(), ["a"]),
        Limit(scan_t(), 3),
        UnionAll([scan_t(), scan_t()]),
        SamplerNode(scan_t(), SamplerState(strat_cols=frozenset({"a"}))),
    ]


class TestKeyIsBuiltOnce:
    """Nodes never change after construction, so the key is computed once."""

    @pytest.mark.parametrize("node", [scan_t()] + _one_of_each(), ids=lambda n: type(n).__name__)
    def test_same_object_every_call(self, node):
        assert node.key() is node.key()

    @pytest.mark.parametrize("node", _one_of_each(), ids=lambda n: type(n).__name__)
    def test_a_rebuilt_node_has_its_own_key(self, node):
        before = node.key()
        other = Select(scan_t(), col("c") > 0)
        if isinstance(node, (Join, Aggregate)):  # keep the schema the node needs
            rebuilt = node.with_children(
                [Select(c, col(c.output_columns()[0]) > 0) for c in node.children]
            )
        else:
            rebuilt = node.with_children([other] * len(node.children))
        assert rebuilt is not node
        assert rebuilt.key() != before  # not the stale cache of the original
        assert rebuilt.key() == type(node).with_children(node, rebuilt.children).key()
        assert node.key() is before

    def test_schema_is_derived_at_construction(self):
        joined = Join(scan_t(), scan_u(), ["a"], ["x"])
        assert joined.output_columns() is joined.output_columns()
        assert joined.output_columns() == ("a", "b", "c", "x", "y")


def _same_columns(child):
    """A different subtree with exactly ``child``'s columns."""
    return Select(child, col(child.output_columns()[0]) > 0)


class TestSameSchemaRebuild:
    """A rebuild over children with unchanged columns skips the
    constructor's checks, and copies parameters but never caches."""

    @pytest.mark.parametrize("node", _one_of_each(), ids=lambda n: type(n).__name__)
    def test_skips_the_constructor_and_keeps_parameters(self, node, monkeypatch):
        children = [_same_columns(c) for c in node.children]
        built = type(node)._construct(node, tuple(children))

        def boom(*args, **kwargs):
            raise AssertionError("same-schema rebuild ran the constructor")

        monkeypatch.setattr(type(node), "__init__", boom)
        rebuilt = node.with_children(children)
        assert type(rebuilt) is type(node)
        assert rebuilt.children == tuple(children)
        assert rebuilt.output_columns() == node.output_columns()
        assert rebuilt.key() == built.key()
        assert plan_fingerprint(rebuilt) == plan_fingerprint(built)

    @pytest.mark.parametrize("node", _one_of_each(), ids=lambda n: type(n).__name__)
    def test_carries_no_cache_of_its_source(self, node):
        node.key()
        canonical_plan_form(node)
        plan_fingerprint(node)
        rebuilt = node.with_children([_same_columns(c) for c in node.children])
        assert not {"_key", "_quickr_canonical_form", "_quickr_fingerprint"} & set(rebuilt.__dict__)
        assert set(rebuilt.__dict__) == {"children", "_columns", *type(node)._params}
        assert rebuilt.key() != node.key()
        assert plan_fingerprint(rebuilt) != plan_fingerprint(node)

    def test_changed_columns_are_still_checked(self):
        narrow = Scan("t", ("b", "c"))
        with pytest.raises(SchemaError):
            Select(scan_t(), col("a") > 1).with_children([narrow])
        with pytest.raises(SchemaError):
            Project(scan_t(), {"a": col("a")}).with_children([narrow])
        with pytest.raises(SchemaError):
            Join(scan_t(), scan_u(), ["a"], ["x"]).with_children([narrow, scan_u()])
        with pytest.raises(SchemaError):  # the new right side shares "b"
            Join(scan_t(), scan_u(), ["a"], ["x"]).with_children([scan_t(), Scan("u", ("x", "b"))])
        with pytest.raises(SchemaError):
            Aggregate(scan_t(), ("a",), [count("n")]).with_children([narrow])
        with pytest.raises(SchemaError):
            OrderBy(scan_t(), ["a"]).with_children([narrow])
        with pytest.raises(SchemaError):
            UnionAll([scan_t(), scan_t()]).with_children([scan_t(), narrow])
