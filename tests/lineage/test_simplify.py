"""Tests for repro.lineage.simplify."""

from __future__ import annotations

from repro.lineage import (
    FALSE,
    TRUE,
    Var,
    and_not,
    canonical,
    equivalent,
    lineage_and,
    lineage_not,
    lineage_or,
    restrict,
)


class TestRestrict:
    def test_restrict_variable(self):
        assert restrict(Var("a"), {"a": True}) == TRUE
        assert restrict(Var("a"), {"a": False}) == FALSE
        assert restrict(Var("a"), {"b": True}) == Var("a")

    def test_restrict_simplifies_connectives(self):
        expr = lineage_and(Var("a"), Var("b"))
        assert restrict(expr, {"a": True}) == Var("b")
        assert restrict(expr, {"a": False}) == FALSE

    def test_restrict_negation(self):
        assert restrict(lineage_not(Var("a")), {"a": True}) == FALSE

    def test_restrict_leaves_unassigned_symbolic(self):
        expr = lineage_or(Var("a"), lineage_and(Var("b"), Var("c")))
        restricted = restrict(expr, {"b": True})
        assert restricted == lineage_or(Var("a"), Var("c"))


class TestSemanticChecks:
    def test_equivalent_structural_shortcut(self):
        assert equivalent(Var("a"), Var("a"))

    def test_equivalent_commuted_operands(self):
        assert equivalent(lineage_or(Var("b3"), Var("b2")), lineage_or(Var("b2"), Var("b3")))

    def test_equivalent_de_morgan(self):
        left = lineage_not(lineage_or(Var("a"), Var("b")))
        right = lineage_and(lineage_not(Var("a")), lineage_not(Var("b")))
        assert equivalent(left, right)

    def test_not_equivalent(self):
        assert not equivalent(Var("a"), Var("b"))
        assert not equivalent(lineage_and(Var("a"), Var("b")), lineage_or(Var("a"), Var("b")))

    def test_equivalent_absorption(self):
        left = lineage_or(Var("a"), lineage_and(Var("a"), Var("b")))
        assert equivalent(left, Var("a"))


class TestNormalForms:
    def test_canonical_sorts_commutative_operands(self):
        assert canonical(lineage_or(Var("b3"), Var("b2"))) == canonical(
            lineage_or(Var("b2"), Var("b3"))
        )

    def test_canonical_recurses(self):
        left = and_not(Var("a1"), lineage_or(Var("b3"), Var("b2")))
        right = and_not(Var("a1"), lineage_or(Var("b2"), Var("b3")))
        assert canonical(left) == canonical(right)

    def test_canonical_preserves_semantics(self):
        expr = lineage_or(lineage_and(Var("c"), Var("a")), lineage_not(Var("b")))
        assert equivalent(expr, canonical(expr))

