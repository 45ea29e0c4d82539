"""Scalar expression AST used in predicates, projections and aggregates.

Expressions are immutable trees. Each node knows:

* ``columns()`` — the set of *base* column names it reads. This powers the
  QCS/QVS analysis from the paper (Section 3): the Query Column Set is the
  set of columns that decide which rows are in the answer, and the Query
  Value Set is the set of columns aggregated over.
* ``evaluate(table)`` — vectorized evaluation against a columnar
  :class:`~repro.engine.table.Table`, returning a NumPy array with one
  entry per row.

User-defined functions (the paper's UDFs, row-local operations) are modeled
by :class:`Func`, which wraps an arbitrary vectorized callable and declares
which input columns it consumes.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import ExpressionError

__all__ = [
    "Expr",
    "Col",
    "Lit",
    "BinOp",
    "Cmp",
    "And",
    "Or",
    "Not",
    "Func",
    "IfThenElse",
    "IsIn",
    "col",
    "lit",
    "ensure_expr",
]

_ARITH_OPS: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_CMP_OPS: dict[str, Callable] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expr:
    """Base class for scalar expressions."""

    _key: Optional[tuple] = None

    def columns(self) -> frozenset:
        """Base column names read by this expression."""
        raise NotImplementedError

    def evaluate(self, table) -> np.ndarray:
        """Evaluate against a columnar table, returning one value per row."""
        raise NotImplementedError

    def rename(self, mapping: dict) -> "Expr":
        """Return a copy with column references renamed via ``mapping``."""
        raise NotImplementedError

    # -- operator sugar so queries read like SQL fragments ------------------
    def __add__(self, other):
        return BinOp("+", self, ensure_expr(other))

    def __radd__(self, other):
        return BinOp("+", ensure_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, ensure_expr(other))

    def __rsub__(self, other):
        return BinOp("-", ensure_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, ensure_expr(other))

    def __rmul__(self, other):
        return BinOp("*", ensure_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, ensure_expr(other))

    def __mod__(self, other):
        return BinOp("%", self, ensure_expr(other))

    def __eq__(self, other):  # noqa: D105 - intentional SQL-style equality
        return Cmp("==", self, ensure_expr(other))

    def __ne__(self, other):
        return Cmp("!=", self, ensure_expr(other))

    def __lt__(self, other):
        return Cmp("<", self, ensure_expr(other))

    def __le__(self, other):
        return Cmp("<=", self, ensure_expr(other))

    def __gt__(self, other):
        return Cmp(">", self, ensure_expr(other))

    def __ge__(self, other):
        return Cmp(">=", self, ensure_expr(other))

    def __and__(self, other):
        return And(self, ensure_expr(other))

    def __or__(self, other):
        return Or(self, ensure_expr(other))

    def __invert__(self):
        return Not(self)

    def isin(self, values: Iterable) -> "IsIn":
        return IsIn(self, tuple(values))

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """A hashable structural identity, used for plan deduplication.

        Built once and kept, as :meth:`LogicalNode.key` is: an expression
        never changes after construction, and a plan key embeds the keys
        of all its expressions.
        """
        if self._key is None:
            self._key = self._build_key()
        return self._key

    def _build_key(self) -> tuple:
        raise NotImplementedError


class Col(Expr):
    """Reference to a column by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ExpressionError(f"column name must be a non-empty string, got {name!r}")
        self.name = name

    def columns(self) -> frozenset:
        return frozenset({self.name})

    def evaluate(self, table) -> np.ndarray:
        return table.column(self.name)

    def rename(self, mapping: dict) -> "Col":
        return Col(mapping.get(self.name, self.name))

    def _build_key(self) -> tuple:
        return ("col", self.name)

    def __repr__(self):
        return f"Col({self.name})"


class Lit(Expr):
    """A constant literal."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def columns(self) -> frozenset:
        return frozenset()

    def evaluate(self, table) -> np.ndarray:
        return np.full(table.num_rows, self.value)

    def rename(self, mapping: dict) -> "Lit":
        return self

    def _build_key(self) -> tuple:
        return ("lit", self.value)

    def __repr__(self):
        return f"Lit({self.value!r})"


class BinOp(Expr):
    """Arithmetic binary operation over two expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> frozenset:
        return self.left.columns() | self.right.columns()

    def evaluate(self, table) -> np.ndarray:
        lhs = self.left.evaluate(table)
        rhs = self.right.evaluate(table)
        if self.op in ("/", "%"):
            rhs = np.where(rhs == 0, np.nan, rhs)
        return _ARITH_OPS[self.op](lhs, rhs)

    def rename(self, mapping: dict) -> "BinOp":
        return BinOp(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def _build_key(self) -> tuple:
        return ("binop", self.op, self.left.key(), self.right.key())

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Cmp(Expr):
    """Comparison yielding a boolean mask."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> frozenset:
        return self.left.columns() | self.right.columns()

    def evaluate(self, table) -> np.ndarray:
        return np.asarray(_CMP_OPS[self.op](self.left.evaluate(table), self.right.evaluate(table)), dtype=bool)

    def rename(self, mapping: dict) -> "Cmp":
        return Cmp(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def _build_key(self) -> tuple:
        return ("cmp", self.op, self.left.key(), self.right.key())

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """Logical conjunction of boolean expressions."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def columns(self) -> frozenset:
        return self.left.columns() | self.right.columns()

    def evaluate(self, table) -> np.ndarray:
        return np.asarray(self.left.evaluate(table), dtype=bool) & np.asarray(
            self.right.evaluate(table), dtype=bool
        )

    def rename(self, mapping: dict) -> "And":
        return And(self.left.rename(mapping), self.right.rename(mapping))

    def _build_key(self) -> tuple:
        return ("and", self.left.key(), self.right.key())

    def conjuncts(self) -> list:
        """Flatten nested conjunctions into a list of predicates."""
        out = []
        for side in (self.left, self.right):
            if isinstance(side, And):
                out.extend(side.conjuncts())
            else:
                out.append(side)
        return out

    def __repr__(self):
        return f"({self.left!r} AND {self.right!r})"


class Or(Expr):
    """Logical disjunction of boolean expressions."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def columns(self) -> frozenset:
        return self.left.columns() | self.right.columns()

    def evaluate(self, table) -> np.ndarray:
        return np.asarray(self.left.evaluate(table), dtype=bool) | np.asarray(
            self.right.evaluate(table), dtype=bool
        )

    def rename(self, mapping: dict) -> "Or":
        return Or(self.left.rename(mapping), self.right.rename(mapping))

    def _build_key(self) -> tuple:
        return ("or", self.left.key(), self.right.key())

    def __repr__(self):
        return f"({self.left!r} OR {self.right!r})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def columns(self) -> frozenset:
        return self.child.columns()

    def evaluate(self, table) -> np.ndarray:
        return ~np.asarray(self.child.evaluate(table), dtype=bool)

    def rename(self, mapping: dict) -> "Not":
        return Not(self.child.rename(mapping))

    def _build_key(self) -> tuple:
        return ("not", self.child.key())

    def __repr__(self):
        return f"NOT({self.child!r})"


class IsIn(Expr):
    """Membership test against a fixed set of values."""

    __slots__ = ("child", "values")

    def __init__(self, child: Expr, values: tuple):
        self.child = child
        self.values = tuple(values)

    def columns(self) -> frozenset:
        return self.child.columns()

    def evaluate(self, table) -> np.ndarray:
        return np.isin(self.child.evaluate(table), np.asarray(self.values))

    def rename(self, mapping: dict) -> "IsIn":
        return IsIn(self.child.rename(mapping), self.values)

    def _build_key(self) -> tuple:
        return ("isin", self.child.key(), self.values)

    def __repr__(self):
        return f"{self.child!r} IN {self.values!r}"


class Func(Expr):
    """A row-local user-defined function (UDF in the paper's terminology).

    ``fn`` must be vectorized: it receives one NumPy array per argument and
    returns an array of the same length. The function ``name`` participates
    in structural identity, so two UDFs with the same name and arguments
    are treated as the same expression by the optimizer.
    """

    __slots__ = ("name", "fn", "args")

    def __init__(self, name: str, fn: Callable, args: Sequence[Expr]):
        self.name = name
        self.fn = fn
        self.args = tuple(ensure_expr(a) for a in args)

    def columns(self) -> frozenset:
        out = frozenset()
        for arg in self.args:
            out |= arg.columns()
        return out

    def evaluate(self, table) -> np.ndarray:
        return self.fn(*[arg.evaluate(table) for arg in self.args])

    def rename(self, mapping: dict) -> "Func":
        return Func(self.name, self.fn, [a.rename(mapping) for a in self.args])

    def _build_key(self) -> tuple:
        return ("func", self.name) + tuple(a.key() for a in self.args)

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"


class IfThenElse(Expr):
    """Vectorized conditional: ``IF(cond, then, otherwise)``."""

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then, otherwise):
        self.cond = ensure_expr(cond)
        self.then = ensure_expr(then)
        self.otherwise = ensure_expr(otherwise)

    def columns(self) -> frozenset:
        return self.cond.columns() | self.then.columns() | self.otherwise.columns()

    def evaluate(self, table) -> np.ndarray:
        return np.where(
            np.asarray(self.cond.evaluate(table), dtype=bool),
            self.then.evaluate(table),
            self.otherwise.evaluate(table),
        )

    def rename(self, mapping: dict) -> "IfThenElse":
        return IfThenElse(
            self.cond.rename(mapping), self.then.rename(mapping), self.otherwise.rename(mapping)
        )

    def _build_key(self) -> tuple:
        return ("if", self.cond.key(), self.then.key(), self.otherwise.key())

    def __repr__(self):
        return f"IF({self.cond!r}, {self.then!r}, {self.otherwise!r})"


def col(name: str) -> Col:
    """Shorthand constructor for a column reference."""
    return Col(name)


def lit(value) -> Lit:
    """Shorthand constructor for a literal."""
    return Lit(value)


def ensure_expr(value) -> Expr:
    """Coerce plain Python values to :class:`Lit`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, str, bool, np.integer, np.floating)):
        return Lit(value)
    raise ExpressionError(f"cannot coerce {value!r} to an expression")
