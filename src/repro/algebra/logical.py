"""Logical plan nodes.

A query is a tree of :class:`LogicalNode`. Nodes are immutable; rewrites
build new trees via :meth:`LogicalNode.with_children`. Every node derives
its output schema at construction time so malformed plans fail early, and
exposes a structural :meth:`LogicalNode.key` used by the optimizer to
de-duplicate alternatives.

The sampler is a first-class plan node (:class:`SamplerNode`), exactly as the
paper argues it must be for the optimizer to explore sampled plans natively
(Section 4.2, option (b)).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import Col, Expr
from repro.errors import PlanError, SchemaError

__all__ = [
    "LogicalNode",
    "Scan",
    "Select",
    "Project",
    "Join",
    "Aggregate",
    "OrderBy",
    "Limit",
    "UnionAll",
    "SamplerNode",
]


class LogicalNode:
    """Base class for logical plan operators."""

    children: Tuple["LogicalNode", ...] = ()
    _columns: Tuple[str, ...] = ()
    _key: Optional[tuple] = None
    #: What the node is built from besides its children: the attributes a
    #: same-schema rebuild copies.
    _params: Tuple[str, ...] = ()

    def output_columns(self) -> Tuple[str, ...]:
        """Names of columns this node produces, in order (derived once, by
        the constructor)."""
        return self._columns

    def with_children(self, children: Sequence["LogicalNode"]) -> "LogicalNode":
        """Rebuild this node over new children (same arity).

        A constructor's checks read only its parameters and its children's
        columns, so when every new child has exactly the old one's columns
        they still hold and the rebuild skips them. It copies ``_params``
        and the schema, never the whole ``__dict__``: cached fields (the
        key, and ``addressing``'s canonical form, text and fingerprint)
        describe the old children.
        """
        children = tuple(children)
        if [c._columns for c in children] != [c._columns for c in self.children]:
            return self._construct(children)
        node = object.__new__(type(self))
        mine, built = self.__dict__, node.__dict__
        for name in self._params:
            built[name] = mine[name]
        built["children"] = children
        built["_columns"] = self._columns
        return node

    def _construct(self, children: Tuple["LogicalNode", ...]) -> "LogicalNode":
        """This node's constructor called over ``children``, checks included."""
        raise NotImplementedError

    def key(self) -> tuple:
        """Hashable structural identity for plan deduplication.

        Built once per node and kept: a node never changes after
        construction (rewrites build new nodes), and a parent's key embeds
        its children's, so without the cache every memo probe rebuilds the
        whole subtree's tuple.
        """
        if self._key is None:
            self._key = self._build_key()
        return self._key

    def _build_key(self) -> tuple:
        raise NotImplementedError

    def walk(self) -> Iterator["LogicalNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Height of the operator tree (a Scan has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def num_operators(self) -> int:
        return sum(1 for _ in self.walk())

    def _require_columns(self, needed: Iterable[str], where: str) -> None:
        available = set()
        for child in self.children:
            available.update(child.output_columns())
        missing = sorted(set(needed) - available)
        if missing:
            raise SchemaError(f"{where}: columns {missing} not available; have {sorted(available)}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(repr(c) for c in self.children)})"


class Scan(LogicalNode):
    """Leaf read of a base table.

    The column list is resolved from the catalog when the plan is built, so
    the plan is self-describing without a live catalog.
    """

    def __init__(self, table: str, columns: Sequence[str]):
        if not columns:
            raise PlanError(f"scan of {table!r} must declare at least one column")
        self.table = table
        self._columns = tuple(columns)
        self.children = ()

    def with_children(self, children: Sequence[LogicalNode]) -> "Scan":
        if children:
            raise PlanError("Scan takes no children")
        return self

    def _build_key(self) -> tuple:
        return ("scan", self.table)

    def __repr__(self):
        return f"Scan({self.table})"


class Select(LogicalNode):
    """Filter rows by a boolean predicate."""

    _params = ("predicate",)

    def __init__(self, child: LogicalNode, predicate: Expr):
        self.children = (child,)
        self.predicate = predicate
        self._require_columns(predicate.columns(), "Select")
        self._columns = child.output_columns()

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def _build_key(self) -> tuple:
        return ("select", self.predicate.key(), self.child.key())

    def __repr__(self):
        return f"Select({self.predicate!r})"


class Project(LogicalNode):
    """Compute output columns as named expressions over the input.

    The output schema is exactly ``mapping``'s keys (in insertion order);
    there is no implicit pass-through. Builders that want to extend a schema
    include identity ``Col`` expressions for the retained columns.
    """

    _params = ("mapping",)

    def __init__(self, child: LogicalNode, mapping: dict):
        if not mapping:
            raise PlanError("Project requires at least one output column")
        self.children = (child,)
        self.mapping = dict(mapping)
        needed = set()
        for expr in self.mapping.values():
            needed |= expr.columns()
        self._require_columns(needed, "Project")
        self._columns = tuple(self.mapping)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "Project":
        (child,) = children
        return Project(child, self.mapping)

    def identity_passthrough(self) -> dict:
        """Map of output name -> source column for pure renames/passthroughs."""
        out = {}
        for name, expr in self.mapping.items():
            if isinstance(expr, Col):
                out[name] = expr.name
        return out

    def _build_key(self) -> tuple:
        return (
            "project",
            tuple((name, expr.key()) for name, expr in self.mapping.items()),
            self.child.key(),
        )

    def __repr__(self):
        return f"Project({list(self.mapping)})"


class Join(LogicalNode):
    """Equi-join on one or more key pairs.

    ``how`` is one of ``inner``, ``left``, ``right``. Full-outer joins are
    outside Quickr's supported surface (paper Table 1) and are rejected.
    """

    _params = ("left_keys", "right_keys", "how")

    SUPPORTED = ("inner", "left", "right")

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        how: str = "inner",
    ):
        if how not in self.SUPPORTED:
            raise PlanError(f"join type {how!r} not supported (full-outer is outside Quickr's surface)")
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join needs equal, non-empty key lists")
        self.children = (left, right)
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.how = how
        left_cols = set(left.output_columns())
        right_cols = set(right.output_columns())
        if not set(self.left_keys) <= left_cols:
            raise SchemaError(f"join keys {self.left_keys} not all in left input {sorted(left_cols)}")
        if not set(self.right_keys) <= right_cols:
            raise SchemaError(f"join keys {self.right_keys} not all in right input {sorted(right_cols)}")
        overlap = left_cols & right_cols
        if overlap:
            raise SchemaError(f"join inputs share column names {sorted(overlap)}; rename first")
        self._columns = left.output_columns() + right.output_columns()

    @property
    def left(self) -> LogicalNode:
        return self.children[0]

    @property
    def right(self) -> LogicalNode:
        return self.children[1]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "Join":
        left, right = children
        return Join(left, right, self.left_keys, self.right_keys, self.how)

    def _build_key(self) -> tuple:
        return ("join", self.how, self.left_keys, self.right_keys, self.left.key(), self.right.key())

    def __repr__(self):
        pairs = ", ".join(f"{lk}={rk}" for lk, rk in zip(self.left_keys, self.right_keys))
        return f"Join[{self.how}]({pairs})"


class Aggregate(LogicalNode):
    """Group-by aggregation. ``group_by`` may be empty (scalar aggregates)."""

    _params = ("group_by", "aggs")

    def __init__(self, child: LogicalNode, group_by: Sequence[str], aggs: Sequence[AggSpec]):
        if not aggs:
            raise PlanError("Aggregate requires at least one aggregate")
        self.children = (child,)
        self.group_by = tuple(group_by)
        self.aggs = tuple(aggs)
        needed = set(self.group_by)
        for agg in self.aggs:
            needed |= agg.columns()
        self._require_columns(needed, "Aggregate")
        aliases = [a.alias for a in self.aggs]
        clash = set(aliases) & set(self.group_by)
        if clash or len(set(aliases)) != len(aliases):
            raise PlanError(f"aggregate aliases must be unique and distinct from group keys: {aliases}")
        self._columns = self.group_by + tuple(aliases)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggs)

    def is_sampleable(self) -> bool:
        """True iff every aggregate admits an unbiased HT estimator."""
        return all(a.is_sampleable() for a in self.aggs)

    def _build_key(self) -> tuple:
        return ("agg", self.group_by, tuple(a.key() for a in self.aggs), self.child.key())

    def __repr__(self):
        return f"Aggregate(by={list(self.group_by)}, aggs={list(self.aggs)})"


class OrderBy(LogicalNode):
    """Sort by one or more columns."""

    _params = ("keys", "descending")

    def __init__(self, child: LogicalNode, keys: Sequence[str], descending: bool = False):
        if not keys:
            raise PlanError("OrderBy requires at least one key")
        self.children = (child,)
        self.keys = tuple(keys)
        self.descending = bool(descending)
        self._require_columns(self.keys, "OrderBy")
        self._columns = child.output_columns()

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "OrderBy":
        (child,) = children
        return OrderBy(child, self.keys, self.descending)

    def _build_key(self) -> tuple:
        return ("orderby", self.keys, self.descending, self.child.key())

    def __repr__(self):
        return f"OrderBy({list(self.keys)}, desc={self.descending})"


class Limit(LogicalNode):
    """Keep the first ``n`` rows. Combined with OrderBy on an aggregation
    column this is the paper's main source of "missed groups" (Section 5.3)."""

    _params = ("n",)

    def __init__(self, child: LogicalNode, n: int):
        if n <= 0:
            raise PlanError("Limit must be positive")
        self.children = (child,)
        self.n = int(n)
        self._columns = child.output_columns()

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "Limit":
        (child,) = children
        return Limit(child, self.n)

    def _build_key(self) -> tuple:
        return ("limit", self.n, self.child.key())

    def __repr__(self):
        return f"Limit({self.n})"


class UnionAll(LogicalNode):
    """Concatenate inputs with identical schemas."""

    def __init__(self, inputs: Sequence[LogicalNode]):
        if len(inputs) < 2:
            raise PlanError("UnionAll requires at least two inputs")
        self.children = tuple(inputs)
        first = self.children[0].output_columns()
        for other in self.children[1:]:
            if other.output_columns() != first:
                raise SchemaError(
                    f"UnionAll schema mismatch: {first} vs {other.output_columns()}"
                )
        self._columns = first

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "UnionAll":
        return UnionAll(children)

    def _build_key(self) -> tuple:
        return ("unionall",) + tuple(c.key() for c in self.children)


class SamplerNode(LogicalNode):
    """A sampler in the plan.

    ``spec`` is either a logical sampler state (during ASALQA exploration,
    :class:`repro.core.sampler_state.SamplerState`) or a physical sampler
    spec (after costing, from :mod:`repro.samplers.base`). Both expose a
    ``key()`` method for structural identity.
    """

    _params = ("spec",)

    def __init__(self, child: LogicalNode, spec):
        if not hasattr(spec, "key"):
            raise PlanError(f"sampler spec {spec!r} must expose a key() method")
        self.children = (child,)
        self.spec = spec
        self._columns = child.output_columns()

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def _construct(self, children: Tuple[LogicalNode, ...]) -> "SamplerNode":
        (child,) = children
        return SamplerNode(child, self.spec)

    def with_spec(self, spec) -> "SamplerNode":
        return SamplerNode(self.child, spec)

    def _build_key(self) -> tuple:
        return ("sampler", self.spec.key(), self.child.key())

    def __repr__(self):
        return f"SamplerNode({self.spec!r})"
