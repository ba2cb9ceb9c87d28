"""Tests for repro.lineage.expr."""

from __future__ import annotations

import pytest

from repro.lineage import FALSE, TRUE, And, LineageError, Not, Or, Var


class TestConstants:
    def test_true_and_false_evaluate_to_themselves(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False

    def test_constants_have_no_variables(self):
        assert TRUE.variables() == frozenset()
        assert FALSE.variables() == frozenset()

    def test_str(self):
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"


class TestVar:
    def test_requires_a_name(self):
        with pytest.raises(LineageError):
            Var("")

    def test_variables(self):
        assert Var("a1").variables() == frozenset({"a1"})

    def test_evaluate(self):
        assert Var("a1").evaluate({"a1": True}) is True
        assert Var("a1").evaluate({"a1": False}) is False

    def test_evaluate_missing_assignment_raises(self):
        with pytest.raises(LineageError):
            Var("a1").evaluate({"b1": True})

    def test_equality_and_hash_by_name(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")
        assert len({Var("x"), Var("x")}) == 1

    def test_str(self):
        assert str(Var("b2")) == "b2"


class TestConnectives:
    def test_and_requires_two_operands(self):
        with pytest.raises(LineageError):
            And((Var("a"),))

    def test_or_requires_two_operands(self):
        with pytest.raises(LineageError):
            Or((Var("a"),))

    def test_and_evaluation(self):
        expr = And((Var("a"), Var("b")))
        assert expr.evaluate({"a": True, "b": True}) is True
        assert expr.evaluate({"a": True, "b": False}) is False

    def test_or_evaluation(self):
        expr = Or((Var("a"), Var("b")))
        assert expr.evaluate({"a": False, "b": False}) is False
        assert expr.evaluate({"a": False, "b": True}) is True

    def test_not_evaluation(self):
        assert Not(Var("a")).evaluate({"a": True}) is False
        assert Not(Var("a")).evaluate({"a": False}) is True

    def test_variables_are_unioned(self):
        expr = And((Var("a"), Or((Var("b"), Var("c")))))
        assert expr.variables() == frozenset({"a", "b", "c"})

    def test_children(self):
        inner = Or((Var("b"), Var("c")))
        expr = And((Var("a"), inner))
        assert expr.children() == (Var("a"), inner)
        assert Not(Var("a")).children() == (Var("a"),)
        assert Var("a").children() == ()

    def test_walk_and_size(self):
        expr = And((Var("a"), Not(Var("b"))))
        assert expr.size() == 4
        assert Var("a") in list(expr.walk())

    def test_str_renders_paper_notation(self):
        expr = And((Var("a1"), Not(Or((Var("b3"), Var("b2"))))))
        assert str(expr) == "a1 ∧ ¬(b3 ∨ b2)"


class TestOperatorSugar:
    def test_and_operator(self):
        assert (Var("a") & Var("b")).evaluate({"a": True, "b": True}) is True

    def test_or_operator(self):
        assert (Var("a") | Var("b")).evaluate({"a": False, "b": True}) is True

    def test_invert_operator(self):
        assert (~Var("a")).evaluate({"a": False}) is True

    def test_combined_expression(self):
        expr = Var("a1") & ~(Var("b3") | Var("b2"))
        assert expr.variables() == frozenset({"a1", "b2", "b3"})
        assert expr.evaluate({"a1": True, "b2": False, "b3": False}) is True
        assert expr.evaluate({"a1": True, "b2": True, "b3": False}) is False
