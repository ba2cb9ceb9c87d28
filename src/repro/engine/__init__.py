"""Pipelined query engine: catalog, plans, planner, executor and SQL front end."""

from .catalog import Catalog, RelationStats
from .continuous import ContinuousScanOperator, DataflowJoinOperator
from .errors import CatalogError, EngineError, PlanError, SQLSyntaxError
from .executor import Engine, execute_sql
from .explain import explain_analyze, explain_logical, explain_physical
from .iterators import PhysicalOperator
from .logical import (
    JoinKind,
    JoinStrategy,
    LogicalPlan,
    Project,
    Scan,
    Select,
    StreamScan,
    Timeslice,
    TPJoin,
    find_scans,
    find_stream_scans,
    walk,
)
from .physical import (
    FilterOperator,
    NaiveJoinOperator,
    NJJoinOperator,
    ProjectOperator,
    ScanOperator,
    TAJoinOperator,
    TimesliceOperator,
)
from .planner import Planner, PlannerConfig
from .sql import JoinClause, ParsedQuery, parse_query, tokenize

__all__ = [
    "Catalog",
    "CatalogError",
    "ContinuousScanOperator",
    "DataflowJoinOperator",
    "Engine",
    "JoinClause",
    "EngineError",
    "FilterOperator",
    "JoinKind",
    "JoinStrategy",
    "LogicalPlan",
    "NJJoinOperator",
    "NaiveJoinOperator",
    "ParsedQuery",
    "PhysicalOperator",
    "PlanError",
    "Planner",
    "PlannerConfig",
    "Project",
    "ProjectOperator",
    "RelationStats",
    "SQLSyntaxError",
    "Scan",
    "ScanOperator",
    "Select",
    "StreamScan",
    "TAJoinOperator",
    "TPJoin",
    "Timeslice",
    "TimesliceOperator",
    "execute_sql",
    "explain_analyze",
    "explain_logical",
    "explain_physical",
    "find_scans",
    "find_stream_scans",
    "parse_query",
    "tokenize",
    "walk",
]
