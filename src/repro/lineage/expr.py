"""Lineage expressions.

In a tuple-independent probabilistic database, every base tuple is annotated
with a Boolean *event variable*; derived tuples carry a *lineage* — a Boolean
expression over those variables recording how the tuple was derived.  The
temporal-probabilistic model of the paper attaches exactly such a lineage to
every tuple, and the joins with negation produce lineages of the form
``λr ∧ λs`` (overlapping windows), ``λr`` (unmatched windows) and
``λr ∧ ¬(λs1 ∨ ... ∨ λsk)`` (negating windows).

Expressions are immutable, hashable trees built from :class:`Var`,
:class:`And`, :class:`Or`, :class:`Not` and the constants :data:`TRUE` /
:data:`FALSE`.  Construction through the helpers in
:mod:`repro.lineage.builders` performs light-weight simplification (constant
folding, flattening, duplicate removal); the raw constructors here never
rewrite their arguments so tests can build exact shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..values import writer

_new = object.__new__


class LineageError(ValueError):
    """Raised for malformed lineage expressions or evaluation errors."""


class LineageExpr:
    """Base class of all lineage expressions.

    The Python operators ``&``, ``|`` and ``~`` are overloaded to build
    simplified conjunctions, disjunctions and negations, which makes lineage
    construction in the join algorithms read like the paper's formulas.
    """

    __slots__ = ()

    # -- operator sugar -------------------------------------------------- #
    def __and__(self, other: "LineageExpr") -> "LineageExpr":
        from .builders import lineage_and

        return lineage_and(self, other)

    def __or__(self, other: "LineageExpr") -> "LineageExpr":
        from .builders import lineage_or

        return lineage_or(self, other)

    def __invert__(self) -> "LineageExpr":
        from .builders import lineage_not

        return lineage_not(self)

    # -- interface ------------------------------------------------------- #
    def variables(self) -> frozenset[str]:
        """Return the names of the event variables mentioned in the expression."""
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the expression under a truth assignment.

        Raises:
            LineageError: if a variable has no value in ``assignment``.
        """
        raise NotImplementedError

    def children(self) -> tuple["LineageExpr", ...]:
        """Return the direct sub-expressions."""
        return ()

    def walk(self) -> Iterator["LineageExpr"]:
        """Yield the expression and all sub-expressions, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of nodes in the expression tree."""
        return sum(1 for _node in self.walk())


@dataclass(frozen=True, slots=True)
class _Const(LineageExpr):
    """A Boolean constant; only two instances exist (``TRUE`` and ``FALSE``)."""

    value: bool

    def variables(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def __str__(self) -> str:
        return "true" if self.value else "false"

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: The always-true lineage (lineage of a certain tuple).
TRUE = _Const(True)
#: The always-false lineage (lineage of an impossible tuple).
FALSE = _Const(False)


@dataclass(frozen=True, slots=True, init=False)
class Var(LineageExpr):
    """An event variable, identified by its name (e.g. ``"a1"``)."""

    name: str

    def __new__(cls, name: str) -> "Var":
        if not name:
            raise LineageError("event variable name must be non-empty")
        self = _new(_VarWriter)
        self.name = name
        self.__class__ = Var
        return self

    def __reduce__(self):
        return Var, (self.name,)

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError as exc:
            raise LineageError(f"no truth value for event variable {self.name!r}") from exc

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, init=False)
class Not(LineageExpr):
    """Negation of a sub-expression."""

    child: LineageExpr

    def __new__(cls, child: LineageExpr) -> "Not":
        self = _new(_NotWriter)
        self.child = child
        self.__class__ = Not
        return self

    def __reduce__(self):
        return Not, (self.child,)

    def variables(self) -> frozenset[str]:
        return self.child.variables()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.child.evaluate(assignment)

    def children(self) -> tuple[LineageExpr, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"¬{_wrap(self.child)}"


@dataclass(frozen=True, slots=True, init=False)
class And(LineageExpr):
    """Conjunction of two or more sub-expressions."""

    operands: tuple[LineageExpr, ...]

    def __new__(cls, operands: tuple[LineageExpr, ...]) -> "And":
        if len(operands) < 2:
            raise LineageError("And requires at least two operands")
        self = _new(_AndWriter)
        self.operands = operands
        self.__class__ = And
        return self

    def __reduce__(self):
        return And, (self.operands,)

    def variables(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for operand in self.operands:
            names |= operand.variables()
        return names

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(operand.evaluate(assignment) for operand in self.operands)

    def children(self) -> tuple[LineageExpr, ...]:
        return self.operands

    def __str__(self) -> str:
        return " ∧ ".join(_wrap(operand) for operand in self.operands)


@dataclass(frozen=True, slots=True, init=False)
class Or(LineageExpr):
    """Disjunction of two or more sub-expressions."""

    operands: tuple[LineageExpr, ...]

    def __new__(cls, operands: tuple[LineageExpr, ...]) -> "Or":
        if len(operands) < 2:
            raise LineageError("Or requires at least two operands")
        self = _new(_OrWriter)
        self.operands = operands
        self.__class__ = Or
        return self

    def __reduce__(self):
        return Or, (self.operands,)

    def variables(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for operand in self.operands:
            names |= operand.variables()
        return names

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(operand.evaluate(assignment) for operand in self.operands)

    def children(self) -> tuple[LineageExpr, ...]:
        return self.operands

    def __str__(self) -> str:
        return " ∨ ".join(_wrap(operand) for operand in self.operands)


_VarWriter, _NotWriter, _AndWriter, _OrWriter = (writer(cls) for cls in (Var, Not, And, Or))


def _wrap(expr: LineageExpr) -> str:
    """Parenthesise composite operands when printing."""
    if isinstance(expr, (And, Or)):
        return f"({expr})"
    return str(expr)
