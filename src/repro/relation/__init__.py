"""Temporal-probabilistic data model: schemas, tuples, relations, operators."""

from .errors import (
    ConstraintViolation,
    RelationError,
    SchemaError,
    UnknownAttributeError,
)
from .io import read_relation_csv, write_relation_csv
from .operators import (
    project,
    rename,
    select,
    select_eq,
    snapshot,
    timeslice,
)
from .predicates import (
    EquiJoinCondition,
    PredicateCondition,
    ThetaCondition,
    TrueCondition,
    equi_join_on,
    stable_key_hash,
    theta_or_true,
)
from .relation import TPRelation
from .schema import Schema
from .tptuple import TPTuple

__all__ = [
    "ConstraintViolation",
    "EquiJoinCondition",
    "PredicateCondition",
    "RelationError",
    "Schema",
    "SchemaError",
    "TPRelation",
    "TPTuple",
    "ThetaCondition",
    "TrueCondition",
    "UnknownAttributeError",
    "equi_join_on",
    "stable_key_hash",
    "project",
    "read_relation_csv",
    "rename",
    "select",
    "select_eq",
    "theta_or_true",
    "snapshot",
    "timeslice",
    "write_relation_csv",
]
