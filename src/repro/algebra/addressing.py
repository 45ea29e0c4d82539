"""Stable structural plan addressing and canonical plan fingerprints.

Every execution layer needs to talk about "this node of that plan": the
executor records per-node cardinalities, the parallel executor stitches
worker metrics back into the parent's plan profile, the view store matches
sampled sub-expressions across queries, and the BlinkDB baseline matches
repeated queries. Keying any of that on ``id(node)`` ties the mapping to
one Python process (and silently breaks when a node object is shared
between two positions of a tree). This module provides two portable
identities instead:

* **Node addresses** — a node's pre-order path from the root, as a tuple of
  child indices (the root is ``()``, its second child is ``(1,)``, that
  child's first child is ``(1, 0)``). Addresses are stable across plan
  copies, process boundaries and re-compilation, and two occurrences of the
  *same* node object in one tree get two distinct addresses.

* **Plan fingerprints** — a SHA-256 digest of a canonical encoding of the
  subtree. The encoding is order-insensitive over commutative parts
  (inner-join operands, AND/OR conjunct chains, ``+``/``*`` and ``==``/``!=``
  operands) and parameterized on sampler specs (kind, columns, rate *and*
  seed), so two submissions of the same query — even with join inputs or
  predicate conjuncts written in a different order — map to the same cache
  entry, while changing any sampler parameter changes the fingerprint.
  Order-sensitive constructs (projection output order, group-by order,
  UNION ALL branch order, outer joins, ORDER BY) keep their order: there
  the order is part of the answer.

Canonical forms and fingerprints are memoized on the node objects (plans
are immutable by convention; rewrites build new trees), so re-submitting
the same plan object re-uses the digest without re-walking the tree.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.algebra.expressions import And, BinOp, Cmp, Col, Expr, Func, IfThenElse, IsIn, Lit, Not, Or
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
from repro.errors import PlanError

__all__ = [
    "NodeAddress",
    "ROOT_ADDRESS",
    "walk_with_addresses",
    "format_address",
    "parse_address",
    "node_at",
    "scan_ordinals",
    "trace_to_scan",
    "canonical_plan_form",
    "plan_fingerprint",
]

#: A node's position in its plan: the tuple of child indices on the path
#: from the root. ``()`` is the root itself.
NodeAddress = Tuple[int, ...]

ROOT_ADDRESS: NodeAddress = ()

_CANON_ATTR = "_quickr_canonical_form"
_TEXT_ATTR = "_quickr_canonical_text"
_FP_ATTR = "_quickr_fingerprint"


def walk_with_addresses(
    plan: LogicalNode, prefix: NodeAddress = ROOT_ADDRESS
) -> Iterator[Tuple[NodeAddress, LogicalNode]]:
    """Pre-order traversal yielding ``(address, node)`` pairs.

    ``prefix`` offsets every address, so walking a subtree with its own
    absolute address as the prefix yields absolute addresses.
    """
    yield prefix, plan
    for i, child in enumerate(plan.children):
        yield from walk_with_addresses(child, prefix + (i,))


def format_address(address: NodeAddress) -> str:
    """Human-readable address: ``r`` for the root, else ``r.1.0`` style."""
    if not address:
        return "r"
    return "r." + ".".join(str(i) for i in address)


def parse_address(text: str) -> NodeAddress:
    """Inverse of :func:`format_address`."""
    parts = text.split(".")
    if not parts or parts[0] != "r":
        raise PlanError(f"malformed node address {text!r}; expected 'r' or 'r.<i>.<j>...'")
    try:
        return tuple(int(p) for p in parts[1:])
    except ValueError as exc:
        raise PlanError(f"malformed node address {text!r}: {exc}") from None


def node_at(plan: LogicalNode, address: NodeAddress) -> LogicalNode:
    """The node at ``address``; raises :class:`PlanError` if out of range."""
    node = plan
    for depth, index in enumerate(address):
        if index < 0 or index >= len(node.children):
            raise PlanError(
                f"address {format_address(address)} leaves the plan at depth {depth} "
                f"({type(node).__name__} has {len(node.children)} children)"
            )
        node = node.children[index]
    return node


def scan_ordinals(plan: LogicalNode) -> Dict[NodeAddress, int]:
    """Map each Scan *occurrence* (by address) to its pre-order ordinal.

    Unlike identity-keyed maps, a Scan object that appears on both sides of
    a self-join gets two entries with two distinct ordinals — which is what
    gives each occurrence its own lineage column.
    """
    out: Dict[NodeAddress, int] = {}
    for address, node in walk_with_addresses(plan):
        if isinstance(node, Scan):
            out[address] = len(out)
    return out


# -- canonical encodings ------------------------------------------------------

_COMMUTATIVE_BINOPS = frozenset({"+", "*"})
_COMMUTATIVE_CMPS = frozenset({"==", "!="})


def trace_to_scan(
    node: LogicalNode, address: NodeAddress, columns: Tuple[str, ...]
) -> Optional[Tuple[NodeAddress, Scan, Tuple[str, ...]]]:
    """Follow pass-through columns down to a single scan occurrence.

    Returns the scan's address, the scan, and the column names *at the scan*
    that carry the given output columns — or None when the columns are
    computed, split across inputs, or renamed through a non-identity
    projection.
    """
    if isinstance(node, Scan):
        if set(columns) <= set(node.output_columns()):
            return address, node, columns
        return None
    if isinstance(node, (Select, SamplerNode)):
        return trace_to_scan(node.children[0], address + (0,), columns)
    if isinstance(node, Project):
        passthrough = node.identity_passthrough()
        if not all(c in passthrough for c in columns):
            return None
        return trace_to_scan(
            node.child, address + (0,), tuple(passthrough[c] for c in columns)
        )
    if isinstance(node, Join):
        left_cols = set(node.left.output_columns())
        if set(columns) <= left_cols:
            return trace_to_scan(node.left, address + (0,), columns)
        right_cols = set(node.right.output_columns())
        if set(columns) <= right_cols:
            return trace_to_scan(node.right, address + (1,), columns)
        return None
    return None


def _flatten(expr: Expr, kind: type) -> list:
    """Flatten a chain of nested And (or Or) nodes into its leaves."""
    out = []
    for side in (expr.left, expr.right):
        if isinstance(side, kind):
            out.extend(_flatten(side, kind))
        else:
            out.append(side)
    return out


def _expr_canon(expr: Expr) -> tuple:
    """Canonical encoding of a scalar expression (commutative parts sorted)."""
    if isinstance(expr, Col):
        return ("col", expr.name)
    if isinstance(expr, Lit):
        return ("lit", repr(expr.value))
    if isinstance(expr, (And, Or)):
        tag = "and" if isinstance(expr, And) else "or"
        parts = [_expr_canon(p) for p in _flatten(expr, type(expr))]
        return (tag,) + tuple(sorted(parts, key=repr))
    if isinstance(expr, BinOp):
        left, right = _expr_canon(expr.left), _expr_canon(expr.right)
        if expr.op in _COMMUTATIVE_BINOPS and repr(right) < repr(left):
            left, right = right, left
        return ("binop", expr.op, left, right)
    if isinstance(expr, Cmp):
        left, right = _expr_canon(expr.left), _expr_canon(expr.right)
        if expr.op in _COMMUTATIVE_CMPS and repr(right) < repr(left):
            left, right = right, left
        return ("cmp", expr.op, left, right)
    if isinstance(expr, Not):
        return ("not", _expr_canon(expr.child))
    if isinstance(expr, IsIn):
        return ("isin", _expr_canon(expr.child), tuple(sorted(map(repr, expr.values))))
    if isinstance(expr, Func):
        return ("func", expr.name) + tuple(_expr_canon(a) for a in expr.args)
    if isinstance(expr, IfThenElse):
        return ("if", _expr_canon(expr.cond), _expr_canon(expr.then), _expr_canon(expr.otherwise))
    # Unknown expression type: fall back to its structural key.
    return ("expr",) + tuple(expr.key())


def canonical_plan_form(node: LogicalNode) -> tuple:
    """Canonical structural encoding of the subtree rooted at ``node``."""
    cached = node.__dict__.get(_CANON_ATTR)
    if cached is not None:
        return cached
    form = _node_canon(node, canonical_plan_form)
    node.__dict__[_CANON_ATTR] = form
    return form


class _Text:
    """Stands in for a child's canonical form: its ``repr`` is the form's."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _canonical_text(node: LogicalNode) -> str:
    """``repr(canonical_plan_form(node))``, built from the children's texts
    instead of re-printing (and, under an inner join, re-sorting by) every
    subtree at every level above it."""
    cached = node.__dict__.get(_TEXT_ATTR)
    if cached is not None:
        return cached
    text = repr(_node_canon(node, _child_text))
    node.__dict__[_TEXT_ATTR] = text
    return text


def _child_text(node: LogicalNode) -> _Text:
    return _Text(_canonical_text(node))


def _node_canon(node: LogicalNode, child: Callable[[LogicalNode], object]) -> tuple:
    """``node``'s canonical form, with ``child`` giving each child's."""
    if isinstance(node, Scan):
        return ("scan", node.table, node.output_columns())
    if isinstance(node, Select):
        return ("select", _expr_canon(node.predicate), child(node.child))
    if isinstance(node, Project):
        # Output order is part of the schema; entry order is preserved.
        mapping = tuple((name, _expr_canon(expr)) for name, expr in node.mapping.items())
        return ("project", mapping, child(node.child))
    if isinstance(node, SamplerNode):
        return ("sampler", tuple(node.spec.key()), child(node.child))
    if isinstance(node, Join):
        left = (child(node.left), node.left_keys)
        right = (child(node.right), node.right_keys)
        if node.how != "inner":
            return ("join", node.how, left, right)
        # Inner joins commute: order the operands canonically, then order the
        # key *pairs* (keeping each left/right pairing intact).
        first, second = sorted((left, right), key=repr)
        order = sorted(range(len(first[1])), key=lambda i: (first[1][i], second[1][i]))
        return (
            "join",
            "inner",
            (first[0], tuple(first[1][i] for i in order)),
            (second[0], tuple(second[1][i] for i in order)),
        )
    if isinstance(node, Aggregate):
        # Covers WeightedAggregate too: HT-estimation annotations change the
        # executed operator, so they are part of the identity.
        rescale = tuple(sorted((getattr(node, "universe_rescale", None) or {}).items()))
        return (
            "aggregate",
            node.group_by,
            tuple(a.key() for a in node.aggs),
            bool(getattr(node, "compute_ci", False)),
            rescale,
            getattr(node, "universe_variance", None),
            child(node.child),
        )
    if isinstance(node, OrderBy):
        return ("orderby", node.keys, node.descending, child(node.child))
    if isinstance(node, Limit):
        return ("limit", node.n, child(node.child))
    if isinstance(node, UnionAll):
        # Branch order decides answer row order; keep it.
        return ("unionall",) + tuple(child(c) for c in node.children)
    # Unknown node type: structural fallback over class name and children.
    return ("node", type(node).__name__) + tuple(child(c) for c in node.children)


def plan_fingerprint(node: LogicalNode) -> str:
    """Canonical fingerprint of the subtree rooted at ``node``.

    A SHA-256 hex digest of :func:`canonical_plan_form` — stable across
    processes and runs, order-insensitive over commutative plan parts, and
    sensitive to every sampler parameter (including seeds, so universe
    families stay consistent across queries).
    """
    cached = node.__dict__.get(_FP_ATTR)
    if cached is not None:
        return cached
    digest = hashlib.sha256(_canonical_text(node).encode("utf-8")).hexdigest()
    node.__dict__[_FP_ATTR] = digest
    return digest
