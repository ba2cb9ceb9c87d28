"""Lineage normalisation, restriction and equivalence.

The window definitions of the paper compare lineages for *equivalence*
(written ``λ ≡ λ'`` in Table I): an unmatched window is maximal because at
the boundary time point the disjunction of matching lineages *changes*.  The
algorithms only ever need to compare the structured disjunctions they build
themselves, but the declarative window predicates used in the test suite need
a genuine semantic equivalence check, provided here.

Expressions produced by the joins are small (a handful of variables), so the
equivalence check can afford exact co-factoring; it short-circuits on cheap
structural equality first.
"""

from __future__ import annotations

from typing import Mapping

from .builders import lineage_and, lineage_not, lineage_or
from .expr import FALSE, TRUE, And, LineageExpr, Not, Or, Var


def restrict(expr: LineageExpr, assignment: Mapping[str, bool]) -> LineageExpr:
    """Substitute truth values for some variables and simplify.

    Variables not mentioned in ``assignment`` are left symbolic.  The result
    never contains an assigned variable.
    """
    if isinstance(expr, Var):
        if expr.name in assignment:
            return TRUE if assignment[expr.name] else FALSE
        return expr
    if expr == TRUE or expr == FALSE:
        return expr
    if isinstance(expr, Not):
        return lineage_not(restrict(expr.child, assignment))
    if isinstance(expr, And):
        return lineage_and(*(restrict(operand, assignment) for operand in expr.operands))
    if isinstance(expr, Or):
        return lineage_or(*(restrict(operand, assignment) for operand in expr.operands))
    raise TypeError(f"unsupported lineage node {type(expr).__name__}")


def equivalent(left: LineageExpr, right: LineageExpr) -> bool:
    """Semantic equivalence of two lineage expressions.

    Structural equality is checked first; otherwise the two expressions are
    compared by exhaustive co-factoring over their (small) joint variable
    set.
    """
    if left == right:
        return True
    variables = sorted(left.variables() | right.variables())
    return _equivalent_rec(left, right, variables)


def _equivalent_rec(left: LineageExpr, right: LineageExpr, variables: list[str]) -> bool:
    if not variables:
        return _constant_value(left) == _constant_value(right)
    if left == right:
        return True
    name, rest = variables[0], variables[1:]
    for value in (True, False):
        left_cofactor = restrict(left, {name: value})
        right_cofactor = restrict(right, {name: value})
        if not _equivalent_rec(left_cofactor, right_cofactor, rest):
            return False
    return True


def canonical(expr: LineageExpr) -> LineageExpr:
    """Return a canonical form with commutative operands sorted.

    Two expressions that differ only in the order of ``∧`` / ``∨`` operands
    (e.g. ``b3 ∨ b2`` vs ``b2 ∨ b3``, which NJ and the naive oracle produce
    depending on their internal processing order) canonicalise to the same
    expression.  This is *not* full logical canonicalisation — use
    :func:`equivalent` for semantic comparisons — but it is deterministic,
    cheap, and sufficient to compare join results structurally.
    """
    if isinstance(expr, Var) or expr == TRUE or expr == FALSE:
        return expr
    if isinstance(expr, Not):
        return lineage_not(canonical(expr.child))
    if isinstance(expr, And):
        operands = sorted((canonical(op) for op in expr.operands), key=str)
        return lineage_and(*operands)
    if isinstance(expr, Or):
        operands = sorted((canonical(op) for op in expr.operands), key=str)
        return lineage_or(*operands)
    raise TypeError(f"unsupported lineage node {type(expr).__name__}")


def _constant_value(expr: LineageExpr) -> bool:
    if expr == TRUE:
        return True
    if expr == FALSE:
        return False
    raise ValueError(f"expression {expr} is not constant")
