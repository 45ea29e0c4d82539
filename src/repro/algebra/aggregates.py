"""Aggregate specifications (the paper's Table 1 aggregate surface).

Quickr supports ``COUNT``, ``SUM``, ``AVG``, ``MIN``, ``MAX``, their ``*IF``
conditional variants and ``COUNT(DISTINCT ...)``. Each aggregate in a query
is an :class:`AggSpec`; the optimizer's successor stage rewrites these into
Horvitz-Thompson estimators over the weight column (paper Table 8), which is
implemented in :mod:`repro.core.rewrite`.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.algebra.expressions import Expr, ensure_expr
from repro.errors import ExpressionError

__all__ = ["AggKind", "AggSpec", "sum_", "count", "avg", "min_", "max_", "count_distinct", "sum_if", "count_if"]


class AggKind(enum.Enum):
    """The aggregate operations Quickr can approximate (plus MIN/MAX)."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT_DISTINCT = "count_distinct"
    SUM_IF = "sum_if"
    COUNT_IF = "count_if"


#: Aggregates that admit unbiased HT estimation under sampling. MIN/MAX are
#: not sampleable (an extreme value may simply not be in the sample), so a
#: query whose answer depends on them is unapproximable.
SAMPLEABLE_KINDS = frozenset(
    {
        AggKind.SUM,
        AggKind.COUNT,
        AggKind.AVG,
        AggKind.COUNT_DISTINCT,
        AggKind.SUM_IF,
        AggKind.COUNT_IF,
    }
)


class AggSpec:
    """One aggregation in a query's answer.

    Parameters
    ----------
    kind:
        Which aggregate operation to compute.
    alias:
        Output column name.
    expr:
        The value expression (QVS contributor). ``None`` for ``COUNT``.
    cond:
        The boolean condition for ``*IF`` variants.
    """

    __slots__ = ("kind", "alias", "expr", "cond", "_key")

    def __init__(self, kind: AggKind, alias: str, expr: Optional[Expr] = None, cond: Optional[Expr] = None):
        if kind in (AggKind.SUM, AggKind.AVG, AggKind.MIN, AggKind.MAX, AggKind.COUNT_DISTINCT) and expr is None:
            raise ExpressionError(f"{kind.value} requires a value expression")
        if kind in (AggKind.SUM_IF, AggKind.COUNT_IF) and cond is None:
            raise ExpressionError(f"{kind.value} requires a condition")
        if kind is AggKind.SUM_IF and expr is None:
            raise ExpressionError("sum_if requires a value expression")
        self.kind = kind
        self.alias = alias
        self.expr = expr
        self.cond = cond
        self._key: Optional[tuple] = None

    def value_columns(self) -> frozenset:
        """Columns aggregated over — contributors to the QVS."""
        return self.expr.columns() if self.expr is not None else frozenset()

    def condition_columns(self) -> frozenset:
        """Columns in the *IF condition — contributors to the QCS."""
        return self.cond.columns() if self.cond is not None else frozenset()

    def columns(self) -> frozenset:
        return self.value_columns() | self.condition_columns()

    def rename(self, mapping: dict) -> "AggSpec":
        return AggSpec(
            self.kind,
            self.alias,
            self.expr.rename(mapping) if self.expr is not None else None,
            self.cond.rename(mapping) if self.cond is not None else None,
        )

    def is_sampleable(self) -> bool:
        return self.kind in SAMPLEABLE_KINDS

    def key(self) -> tuple:
        """Structural identity, built once (a spec never changes)."""
        if self._key is None:
            self._key = (
                self.kind.value,
                self.alias,
                self.expr.key() if self.expr is not None else None,
                self.cond.key() if self.cond is not None else None,
            )
        return self._key

    def __repr__(self):
        parts = [self.kind.value]
        if self.expr is not None:
            parts.append(repr(self.expr))
        if self.cond is not None:
            parts.append(f"if {self.cond!r}")
        return f"AggSpec({' '.join(parts)} AS {self.alias})"


# -- convenience constructors ------------------------------------------------

def sum_(expr, alias: str) -> AggSpec:
    """``SUM(expr) AS alias``."""
    return AggSpec(AggKind.SUM, alias, ensure_expr(expr))


def count(alias: str) -> AggSpec:
    """``COUNT(*) AS alias``."""
    return AggSpec(AggKind.COUNT, alias)


def avg(expr, alias: str) -> AggSpec:
    """``AVG(expr) AS alias``."""
    return AggSpec(AggKind.AVG, alias, ensure_expr(expr))


def min_(expr, alias: str) -> AggSpec:
    """``MIN(expr) AS alias`` (not approximable)."""
    return AggSpec(AggKind.MIN, alias, ensure_expr(expr))


def max_(expr, alias: str) -> AggSpec:
    """``MAX(expr) AS alias`` (not approximable)."""
    return AggSpec(AggKind.MAX, alias, ensure_expr(expr))


def count_distinct(expr, alias: str) -> AggSpec:
    """``COUNT(DISTINCT expr) AS alias``."""
    return AggSpec(AggKind.COUNT_DISTINCT, alias, ensure_expr(expr))


def sum_if(expr, cond, alias: str) -> AggSpec:
    """``SUMIF(expr, cond) AS alias``."""
    return AggSpec(AggKind.SUM_IF, alias, ensure_expr(expr), ensure_expr(cond))


def count_if(cond, alias: str) -> AggSpec:
    """``COUNTIF(cond) AS alias``."""
    return AggSpec(AggKind.COUNT_IF, alias, cond=ensure_expr(cond))
