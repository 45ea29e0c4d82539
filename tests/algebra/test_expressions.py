"""Unit tests for the scalar expression AST."""

import numpy as np
import pytest

from repro.algebra.expressions import And, BinOp, Col, Func, IfThenElse, Lit, col, ensure_expr, lit
from repro.engine.table import Table
from repro.errors import ExpressionError


@pytest.fixture()
def table():
    return Table("t", {"a": np.array([1, 2, 3, 4]), "b": np.array([10.0, 20.0, 30.0, 40.0])})


class TestColumnsAndLiterals:
    def test_col_reads_column(self, table):
        np.testing.assert_array_equal(col("a").evaluate(table), [1, 2, 3, 4])

    def test_col_columns(self):
        assert col("a").columns() == frozenset({"a"})

    def test_lit_broadcasts(self, table):
        np.testing.assert_array_equal(lit(5).evaluate(table), [5, 5, 5, 5])

    def test_lit_has_no_columns(self):
        assert lit(3).columns() == frozenset()

    def test_empty_column_name_rejected(self):
        with pytest.raises(ExpressionError):
            Col("")

    def test_rename(self, table):
        renamed = col("a").rename({"a": "b"})
        np.testing.assert_array_equal(renamed.evaluate(table), table.column("b"))


class TestArithmetic:
    def test_add_sub_mul(self, table):
        expr = (col("a") + 1) * 2 - col("a")
        np.testing.assert_array_equal(expr.evaluate(table), [3, 4, 5, 6])

    def test_right_hand_operators(self, table):
        np.testing.assert_array_equal((10 - col("a")).evaluate(table), [9, 8, 7, 6])
        np.testing.assert_array_equal((2 * col("a")).evaluate(table), [2, 4, 6, 8])

    def test_division_by_zero_yields_nan(self):
        t = Table("t", {"x": np.array([1.0, 2.0]), "z": np.array([0.0, 2.0])})
        result = (col("x") / col("z")).evaluate(t)
        assert np.isnan(result[0]) and result[1] == 1.0

    def test_mod(self, table):
        np.testing.assert_array_equal((col("a") % 2).evaluate(table), [1, 0, 1, 0])

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            BinOp("**", col("a"), lit(2))

    def test_columns_union(self):
        assert (col("a") + col("b")).columns() == frozenset({"a", "b"})


class TestComparisonsAndBooleans:
    def test_all_comparison_ops(self, table):
        assert list((col("a") == 2).evaluate(table)) == [False, True, False, False]
        assert list((col("a") != 2).evaluate(table)) == [True, False, True, True]
        assert list((col("a") < 2).evaluate(table)) == [True, False, False, False]
        assert list((col("a") <= 2).evaluate(table)) == [True, True, False, False]
        assert list((col("a") > 3).evaluate(table)) == [False, False, False, True]
        assert list((col("a") >= 3).evaluate(table)) == [False, False, True, True]

    def test_and_or_not(self, table):
        expr = (col("a") > 1) & (col("a") < 4)
        assert list(expr.evaluate(table)) == [False, True, True, False]
        expr = (col("a") == 1) | (col("a") == 4)
        assert list(expr.evaluate(table)) == [True, False, False, True]
        assert list((~(col("a") == 1)).evaluate(table)) == [False, True, True, True]

    def test_and_conjuncts_flatten(self):
        expr = And(And(col("a") > 1, col("b") > 2), col("a") < 5)
        assert len(expr.conjuncts()) == 3

    def test_isin(self, table):
        assert list(col("a").isin([2, 4]).evaluate(table)) == [False, True, False, True]

    def test_isin_columns(self):
        assert col("a").isin([1]).columns() == frozenset({"a"})


class TestFuncAndConditional:
    def test_udf_evaluates(self, table):
        double = Func("double", lambda x: x * 2, [col("a")])
        np.testing.assert_array_equal(double.evaluate(table), [2, 4, 6, 8])

    def test_udf_columns(self, table):
        f = Func("f", lambda x, y: x + y, [col("a"), col("b")])
        assert f.columns() == frozenset({"a", "b"})

    def test_udf_identity_by_name_and_args(self):
        f1 = Func("f", lambda x: x, [col("a")])
        f2 = Func("f", lambda x: x + 1, [col("a")])  # same name => same key
        assert f1.key() == f2.key()

    def test_if_then_else(self, table):
        expr = IfThenElse(col("a") > 2, col("b"), lit(0))
        np.testing.assert_array_equal(expr.evaluate(table), [0, 0, 30.0, 40.0])

    def test_if_then_else_columns(self):
        expr = IfThenElse(col("a") > 2, col("b"), lit(0))
        assert expr.columns() == frozenset({"a", "b"})


class TestStructuralIdentity:
    def test_key_stable(self):
        assert (col("a") + 1).key() == (col("a") + 1).key()

    def test_key_distinguishes(self):
        assert (col("a") + 1).key() != (col("a") + 2).key()

    def test_hashable(self):
        assert len({col("a"), col("a"), col("b")}) == 2


class TestCoercion:
    def test_ensure_expr_passthrough(self):
        e = col("a")
        assert ensure_expr(e) is e

    def test_ensure_expr_literals(self):
        assert isinstance(ensure_expr(3), Lit)
        assert isinstance(ensure_expr(3.5), Lit)
        assert isinstance(ensure_expr("x"), Lit)
        assert isinstance(ensure_expr(True), Lit)

    def test_ensure_expr_rejects_junk(self):
        with pytest.raises(ExpressionError):
            ensure_expr(object())
