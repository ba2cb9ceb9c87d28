"""Relation and stream catalog.

The catalog plays the role of PostgreSQL's system catalog for this library's
query engine: it maps relation names to in-memory :class:`TPRelation`
instances and exposes the statistics the planner consults (cardinalities,
distinct join-key counts) when choosing between the NJ and TA physical
operators.  Registered *streams* (:class:`repro.stream.StreamDef`) live in a
separate namespace — a scan says ``STREAM name`` to target one — and named
continuous queries live in a third, one namespace for every kind of query
(engine, dataflow and served standing queries alike), so long-running
deployments address queries, not plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Sequence

from ..relation import TPRelation
from .errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..dataflow import DataflowQuery
    from ..stream import StreamDef


@dataclass(frozen=True, slots=True)
class RelationStats:
    """Planner-visible statistics of one catalogued relation."""

    cardinality: int
    attribute_distinct_counts: dict[str, int]
    timespan_length: int

    def distinct(self, attribute: str) -> int:
        """Distinct-value count of one attribute (0 when unknown)."""
        return self.attribute_distinct_counts.get(attribute, 0)


class Catalog:
    """A named collection of TP relations and streams, with statistics."""

    __slots__ = ("_relations", "_stats", "_streams", "_queries")

    def __init__(self) -> None:
        self._relations: Dict[str, TPRelation] = {}
        self._stats: Dict[str, RelationStats] = {}
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
        self._stats[name] = _compute_stats(relation)

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

    def stats(self, name: str) -> RelationStats:
        """Return the statistics of the relation registered under ``name``."""
        self.lookup(name)
        return self._stats[name]

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
    # planner estimates
    # ------------------------------------------------------------------ #
    def stream_join_state_estimate(
        self,
        left_names: Sequence[str],
        right_names: Sequence[str],
        on: tuple[tuple[str, str], ...],
    ) -> tuple[float, int, int]:
        """Estimate a stream join stage's state size for the partition planner.

        Implements the cost model of :func:`repro.parallel.estimate_join_state`
        (``open positives × matches per positive``, matches from the negative
        side's key selectivity) over the streams' expected statistics
        (:class:`repro.stream.StreamStats`).  Dataflow nodes join streams (or
        other nodes, whose inputs bottom out in streams).  Streams without
        statistics contribute zero cardinality — an unknown input never
        justifies fanning a stage out.

        Returns ``(state_estimate, left_cardinality, right_distinct_keys)``.
        ``right_distinct_keys`` is **0 when the key selectivity is unknown**
        (no stats, or stats without the join attribute), so the planner can
        distinguish "one distinct key, never split" from "no idea, don't
        cap"; the state estimate itself still assumes at least one key.
        """
        from ..parallel.plan import estimate_join_state

        def stats_of(name: str):
            return self.lookup_stream(name).stats

        left_cardinality = sum(
            stats.cardinality
            for stats in (stats_of(name) for name in left_names)
            if stats is not None
        )
        right_stats = [
            stats
            for stats in (stats_of(name) for name in right_names)
            if stats is not None
        ]
        right_cardinality = sum(stats.cardinality for stats in right_stats)
        right_distinct = 0
        if on:
            key_attribute = on[0][1]
            right_distinct = sum(
                stats.distinct(key_attribute) for stats in right_stats
            )
        state = estimate_join_state(
            left_cardinality, right_cardinality, max(1, right_distinct)
        )
        return state, left_cardinality, right_distinct

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


def _compute_stats(relation: TPRelation) -> RelationStats:
    distinct_counts = {
        attribute: len(set(relation.attribute_values(attribute)))
        for attribute in relation.schema.attributes
    }
    timespan = relation.timespan()
    return RelationStats(
        cardinality=len(relation),
        attribute_distinct_counts=distinct_counts,
        timespan_length=0 if timespan is None else timespan.duration,
    )
