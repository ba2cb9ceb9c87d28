"""Relation and stream catalog.

The catalog plays the role of PostgreSQL's system catalog for this library's
query engine: it maps relation names to in-memory :class:`TPRelation`
instances.  It keeps no statistics: the planner decides by rule, not by
cost (:mod:`repro.engine.planner`).  Registered *streams*
(:class:`repro.stream.StreamDef`) live in a separate namespace — a scan says
``STREAM name`` to target one — and named continuous queries live in a
third, one namespace for every kind of query (engine, dataflow and served
standing queries alike), so long-running deployments address queries, not
plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator

from ..relation import TPRelation
from .errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..dataflow import DataflowQuery
    from ..stream import StreamDef


class Catalog:
    """A named collection of TP relations, streams and continuous queries."""

    __slots__ = ("_relations", "_streams", "_queries")

    def __init__(self) -> None:
        self._relations: Dict[str, TPRelation] = {}
        self._streams: Dict[str, "StreamDef"] = {}
        self._queries: Dict[str, "DataflowQuery"] = {}

    def register(self, name: str, relation: TPRelation, replace: bool = False) -> None:
        """Register a relation under ``name``.

        Raises:
            CatalogError: if the name is taken and ``replace`` is not set.
        """
        if name in self._relations and not replace:
            raise CatalogError(f"relation {name!r} already registered")
        self._relations[name] = relation

    def lookup(self, name: str) -> TPRelation:
        """Return the relation registered under ``name``.

        Raises:
            CatalogError: if the name is unknown.
        """
        try:
            return self._relations[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown relation {name!r}; registered: {sorted(self._relations)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def names(self) -> list[str]:
        """All registered relation names, sorted."""
        return sorted(self._relations)

    # ------------------------------------------------------------------ #
    # streams
    # ------------------------------------------------------------------ #
    def register_stream(self, name: str, stream: "StreamDef", replace: bool = False) -> None:
        """Register a stream definition under ``name`` (separate namespace).

        Raises:
            CatalogError: if the name is taken and ``replace`` is not set.
        """
        if name in self._streams and not replace:
            raise CatalogError(f"stream {name!r} already registered")
        self._streams[name] = stream

    def lookup_stream(self, name: str) -> "StreamDef":
        """Return the stream registered under ``name``.

        Raises:
            CatalogError: if the name is unknown.
        """
        try:
            return self._streams[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown stream {name!r}; registered: {sorted(self._streams)}"
            ) from exc

    def is_stream(self, name: str) -> bool:
        """Whether ``name`` refers to a registered stream."""
        return name in self._streams

    def stream_names(self) -> list[str]:
        """All registered stream names, sorted."""
        return sorted(self._streams)

    # ------------------------------------------------------------------ #
    # named queries
    # ------------------------------------------------------------------ #
    def register_query(
        self, name: str, query: "DataflowQuery", replace: bool = False
    ) -> None:
        """Register a named continuous query for later execution.

        One namespace holds every kind: a :class:`repro.stream.StreamQuery`
        (a one-node dataflow query), a :class:`repro.dataflow.DataflowQuery`
        and a standing query of :class:`repro.serve.StandingQueryService`.

        Raises:
            CatalogError: if the name is taken and ``replace`` is not set.
        """
        if name in self._queries and not replace:
            raise CatalogError(f"query {name!r} already registered")
        self._queries[name] = query

    def lookup_query(self, name: str) -> "DataflowQuery":
        """Return the query registered under ``name``.

        Raises:
            CatalogError: if the name is unknown.
        """
        try:
            return self._queries[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown query {name!r}; registered: {sorted(self._queries)}"
            ) from exc

    def unregister_query(self, name: str) -> None:
        """Drop a query's catalog entry (missing names are ignored)."""
        self._queries.pop(name, None)

    def query_names(self) -> list[str]:
        """All registered query names, sorted."""
        return sorted(self._queries)

