"""Query engine: catalog, plans, planner, evaluator, EXPLAIN and SQL front end."""

from .catalog import Catalog
from .errors import CatalogError, EngineError, PlanError, SQLSyntaxError
from .executor import Engine, evaluate, execute_sql
from .explain import explain_dataflow, explain_logical, explain_plan
from .logical import (
    DataflowJoin,
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
from .planner import Planner, PlannerConfig
from .sql import JoinClause, ParsedQuery, parse_query, tokenize

__all__ = [
    "Catalog",
    "CatalogError",
    "DataflowJoin",
    "Engine",
    "EngineError",
    "JoinClause",
    "JoinKind",
    "JoinStrategy",
    "LogicalPlan",
    "ParsedQuery",
    "PlanError",
    "Planner",
    "PlannerConfig",
    "Project",
    "SQLSyntaxError",
    "Scan",
    "Select",
    "StreamScan",
    "TPJoin",
    "Timeslice",
    "evaluate",
    "execute_sql",
    "explain_dataflow",
    "explain_logical",
    "explain_plan",
    "find_scans",
    "find_stream_scans",
    "parse_query",
    "tokenize",
    "walk",
]
