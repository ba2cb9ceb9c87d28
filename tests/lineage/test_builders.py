"""Tests for repro.lineage.builders."""

from __future__ import annotations

import pickle

import pytest

from repro.lineage import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Var,
    and_not,
    disjunction_of,
    lineage_and,
    lineage_not,
    lineage_or,
    var,
)


class TestAnd:
    def test_identity_true_removed(self):
        assert lineage_and(Var("a"), TRUE) == Var("a")

    def test_annihilator_false(self):
        assert lineage_and(Var("a"), FALSE) == FALSE

    def test_flattening(self):
        nested = lineage_and(Var("a"), lineage_and(Var("b"), Var("c")))
        assert isinstance(nested, And)
        assert nested.operands == (Var("a"), Var("b"), Var("c"))

    def test_duplicates_removed(self):
        assert lineage_and(Var("a"), Var("a")) == Var("a")

    def test_empty_is_true(self):
        assert lineage_and() == TRUE

    def test_single_operand_unwrapped(self):
        assert lineage_and(Var("a")) == Var("a")


class TestOr:
    def test_identity_false_removed(self):
        assert lineage_or(Var("a"), FALSE) == Var("a")

    def test_annihilator_true(self):
        assert lineage_or(Var("a"), TRUE) == TRUE

    def test_flattening(self):
        nested = lineage_or(Var("a"), lineage_or(Var("b"), Var("c")))
        assert isinstance(nested, Or)
        assert nested.operands == (Var("a"), Var("b"), Var("c"))

    def test_duplicates_removed(self):
        assert lineage_or(Var("a"), Var("a"), Var("b")) == Or((Var("a"), Var("b")))

    def test_empty_is_false(self):
        assert lineage_or() == FALSE


class TestNot:
    def test_double_negation_removed(self):
        assert lineage_not(lineage_not(Var("a"))) == Var("a")

    def test_constants_folded(self):
        assert lineage_not(TRUE) == FALSE
        assert lineage_not(FALSE) == TRUE

    def test_plain_negation(self):
        assert lineage_not(Var("a")) == Not(Var("a"))


class TestConvenience:
    def test_var(self):
        assert var("a1") == Var("a1")

    def test_and_not_builds_the_negating_lineage(self):
        expr = and_not(Var("a1"), lineage_or(Var("b3"), Var("b2")))
        assert str(expr) == "a1 ∧ ¬(b3 ∨ b2)"

    def test_and_not_with_false_negative_side(self):
        assert and_not(Var("a1"), FALSE) == Var("a1")

    def test_disjunction_of_empty(self):
        assert disjunction_of([]) == FALSE

    def test_disjunction_of_iterable(self):
        assert disjunction_of([Var("x"), Var("y")]) == Or((Var("x"), Var("y")))

    def test_order_preserved_first_occurrence(self):
        expr = lineage_or(Var("b3"), Var("b2"), Var("b3"))
        assert isinstance(expr, Or)
        assert expr.operands == (Var("b3"), Var("b2"))


A, B, C = Var("a"), Var("b"), Var("c")
#: Equal to the constants, but not the module's singletons.
UNPICKLED_TRUE = pickle.loads(pickle.dumps(TRUE))
UNPICKLED_FALSE = pickle.loads(pickle.dumps(FALSE))


class TestDirectConstruction:
    """Operand lists that cannot fold are built without the general pass.

    An extra identity operand (``true`` for a conjunction, ``false`` for a
    disjunction) forces the general flatten / fold / dedupe construction and
    folds away, so it is the referee for what the direct return must equal.
    """

    @pytest.mark.parametrize(
        "operands",
        [
            (A, B),
            (A, A),
            (A, Not(B)),
            (Not(B), Not(B)),
            (Not(A), A),
            (A, Not(Or((B, C)))),
            (A, Not(Or((B, B)))),
            (A, Not(TRUE)),
            (A, UNPICKLED_TRUE),
            (A, UNPICKLED_FALSE),
            (UNPICKLED_TRUE, Not(A)),
            (A, And((B, C))),
            (A, Or((B, C))),
            (A,),
            (Not(A),),
        ],
        ids=str,
    )
    def test_conjunction_equals_the_general_construction(self, operands):
        assert lineage_and(*operands) == lineage_and(*operands, TRUE)

    @pytest.mark.parametrize(
        "operands",
        [
            (A,),
            (A, B),
            (C, A, B),
            (A, A),
            (B, A, B),
            (A, UNPICKLED_FALSE),
            (A, UNPICKLED_TRUE),
            (A, Not(B)),
            (A, Or((B, C))),
            (Or((A, A)),),
            (Not(A),),
        ],
        ids=str,
    )
    def test_disjunction_equals_the_general_construction(self, operands):
        assert lineage_or(*operands) == lineage_or(*operands, FALSE)

    def test_unpickled_constants_still_fold(self):
        assert UNPICKLED_TRUE is not TRUE and UNPICKLED_FALSE is not FALSE
        assert lineage_and(A, UNPICKLED_TRUE) == A
        assert lineage_and(A, UNPICKLED_FALSE) == FALSE
        assert lineage_or(A, UNPICKLED_FALSE) == A
        assert lineage_or(A, UNPICKLED_TRUE) == TRUE

    def test_direct_nodes_have_the_expected_shape(self):
        assert lineage_and(A, Not(Or((B, C)))) == And((A, Not(Or((B, C)))))
        assert lineage_and(Not(B), Not(B)) == Not(B)
        assert lineage_or(C, A, B) == Or((C, A, B))
        assert lineage_or(A) is A
