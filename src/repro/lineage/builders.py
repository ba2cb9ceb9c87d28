"""Simplifying constructors for lineage expressions.

The join algorithms build lineages incrementally (e.g. extending the running
disjunction ``λs`` of a negating window every time a matching tuple starts
being valid).  The helpers here apply the cheap, always-safe rewrites —
constant folding, flattening of nested conjunctions/disjunctions, removal of
duplicate operands and double negation — so that lineages stay small without
requiring a full logic minimiser on the hot path.

The operands a join of base relations hands in cannot trigger any of those
rewrites: ``and(λr, λs)`` / ``and(λr, ¬λs)`` take two operands that are each
a variable or a negation, and the disjunction of a negating window takes
distinct variables.  :func:`lineage_and` and :func:`lineage_or` recognise
these by exact node type and build the node directly; every other operand
list goes through the general flatten / fold / dedupe construction, which
returns the same node for these.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .expr import FALSE, TRUE, And, LineageExpr, Not, Or, Var


def var(name: str) -> Var:
    """Create an event variable."""
    return Var(name)


def lineage_and(*operands: LineageExpr) -> LineageExpr:
    """Build the simplified conjunction of ``operands``.

    Simplifications applied: identity (``true`` removed), annihilation
    (any ``false`` operand makes the result ``false``), flattening of nested
    conjunctions and removal of duplicates while preserving first-occurrence
    order.  An empty conjunction is ``true``.
    """
    if len(operands) == 2:
        left, right = operands
        if (type(left) is Var or type(left) is Not) and (
            type(right) is Var or type(right) is Not
        ):
            # Neither a constant nor a conjunction: only equality can fold.
            return left if left == right else And(operands)
    flat = _flatten(operands, And)
    if any(operand is FALSE or operand == FALSE for operand in flat):
        return FALSE
    unique = _dedupe(operand for operand in flat if operand != TRUE)
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))


def lineage_or(*operands: LineageExpr) -> LineageExpr:
    """Build the simplified disjunction of ``operands``.

    Simplifications applied: identity (``false`` removed), annihilation
    (any ``true`` operand makes the result ``true``), flattening of nested
    disjunctions and removal of duplicates.  An empty disjunction is
    ``false``.
    """
    names = {operand.name for operand in operands if type(operand) is Var}
    if len(names) == len(operands) > 0:
        # Distinct variables only: nothing folds, flattens or repeats.
        return operands[0] if len(operands) == 1 else Or(operands)
    flat = _flatten(operands, Or)
    if any(operand is TRUE or operand == TRUE for operand in flat):
        return TRUE
    unique = _dedupe(operand for operand in flat if operand != FALSE)
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


def lineage_not(operand: LineageExpr) -> LineageExpr:
    """Build the simplified negation of ``operand``.

    Double negation is removed and constants are folded.
    """
    if operand == TRUE:
        return FALSE
    if operand == FALSE:
        return TRUE
    if isinstance(operand, Not):
        return operand.child
    return Not(operand)


def and_not(positive: LineageExpr, negated: LineageExpr) -> LineageExpr:
    """The ``andNot`` lineage-concatenation function of the paper.

    Negating windows produce output tuples whose lineage expresses that the
    positive tuple is true while *all* matching negative tuples are false:
    ``λr ∧ ¬λs``.
    """
    return lineage_and(positive, lineage_not(negated))


def disjunction_of(operands: Iterable[LineageExpr]) -> LineageExpr:
    """Disjunction of an iterable (``false`` when empty)."""
    return lineage_or(*list(operands))


def _flatten(
    operands: Sequence[LineageExpr], node_type: type
) -> list[LineageExpr]:
    """Flatten nested nodes of the same type into a single operand list."""
    flat: list[LineageExpr] = []
    for operand in operands:
        if operand is None:
            raise TypeError("lineage operand must not be None")
        if isinstance(operand, node_type):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    return flat


def _dedupe(operands: Iterable[LineageExpr]) -> list[LineageExpr]:
    """Remove duplicate operands, keeping first-occurrence order."""
    seen: set[LineageExpr] = set()
    unique: list[LineageExpr] = []
    for operand in operands:
        if operand not in seen:
            seen.add(operand)
            unique.append(operand)
    return unique
