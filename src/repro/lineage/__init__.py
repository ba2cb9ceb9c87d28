"""Probabilistic substrate: lineage expressions, event space, probability."""

from .builders import (
    and_not,
    disjunction_of,
    lineage_and,
    lineage_not,
    lineage_or,
    var,
)
from .events import EventSpace, InvalidProbabilityError, UnknownEventError
from .expr import FALSE, TRUE, And, LineageError, LineageExpr, Not, Or, Var
from .probability import (
    ProbabilityComputer,
    and_not_probability,
    and_probability,
    probability,
)
from .simplify import canonical, equivalent, restrict

__all__ = [
    "And",
    "EventSpace",
    "FALSE",
    "InvalidProbabilityError",
    "LineageError",
    "LineageExpr",
    "Not",
    "Or",
    "ProbabilityComputer",
    "TRUE",
    "UnknownEventError",
    "Var",
    "and_not",
    "and_not_probability",
    "and_probability",
    "canonical",
    "disjunction_of",
    "equivalent",
    "lineage_and",
    "lineage_not",
    "lineage_or",
    "probability",
    "restrict",
    "var",
]
