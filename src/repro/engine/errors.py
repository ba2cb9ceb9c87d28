"""Exceptions of the query engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all query-engine errors."""


class CatalogError(EngineError):
    """Raised for unknown or duplicate relation names."""


class PlanError(EngineError):
    """Raised when a logical plan is malformed or cannot be planned."""


class SQLSyntaxError(EngineError):
    """Raised when a query string cannot be parsed."""
