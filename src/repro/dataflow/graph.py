"""Dataflow graph topology: chained continuous TP operators.

A :class:`DataflowGraph` is a DAG of join nodes over registered streams.
Each :class:`NodeSpec` names its two inputs — either a catalogued stream or
an earlier node — so arbitrary join *trees* compose: the output revision
stream of one lineage-aware operator feeds the next, with derived watermarks
propagating progress along every edge.

The graph is a pure description plus static validation and schema/θ
inference — an unknown input, kind or θ attribute fails at construction;
:mod:`repro.dataflow.compile` turns it into runtime workers and
:mod:`repro.dataflow.executor` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.joins import JOIN_KINDS, join_output_schema
from ..lineage import EventSpace
from ..options import is_count
from ..relation import Schema
from ..relation.errors import SchemaError
from ..stream.elements import LEFT, RIGHT
from ..stream.operators import theta_from_pairs


class GraphError(ValueError):
    """Raised when a dataflow graph description is invalid."""


@dataclass(frozen=True)
class NodeSpec:
    """One join node of a dataflow graph.

    Attributes:
        name: unique node name (also the right-prefix of its output schema
            when a downstream join clashes attribute names).
        kind: join kind — any of :data:`repro.core.joins.JOIN_KINDS`.
        left / right: input names; each is a registered stream or an
            earlier node of the same graph.
        on: ``(left_attribute, right_attribute)`` equality pairs (θ).
        partitions: intra-stage parallelism degree — the executor fans the
            node out into this many key-partitioned workers.  More than one
            partition requires a non-empty equi-θ: revision elements are
            routed by the stable hash of their join key, so key-disjoint
            partitions never interact (the shared-nothing property of
            equi-θ TP joins).
    """

    name: str
    kind: str
    left: str
    right: str
    on: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    partitions: int = 1

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self.on) or "true"
        parts = f" [parts={self.partitions}]" if self.partitions > 1 else ""
        return (
            f"{self.name}: {self.kind}({self.left}, {self.right}) on {condition}{parts}"
        )


#: An edge of the compiled graph: (consumer node name, input side).
Edge = Tuple[str, str]


class DataflowGraph:
    """A validated DAG of continuous join nodes over catalogued streams.

    Args:
        catalog: any object with ``lookup_stream(name)`` (the engine catalog).
        nodes: node specs in topological order (inputs must precede uses).
    """

    def __init__(self, catalog, nodes: Sequence[NodeSpec]) -> None:
        if not nodes:
            raise GraphError("a dataflow graph needs at least one node")
        self._catalog = catalog
        self._nodes: Tuple[NodeSpec, ...] = tuple(nodes)
        self._schemas: Dict[str, Schema] = {}
        self._sources: List[str] = []
        self._consumers: Dict[str, List[Edge]] = {}
        seen: Dict[str, NodeSpec] = {}
        for spec in self._nodes:
            if spec.kind not in JOIN_KINDS:
                raise GraphError(
                    f"node {spec.name!r}: unknown join kind {spec.kind!r} "
                    f"(supported: {sorted(JOIN_KINDS)})"
                )
            if spec.name in seen or spec.name in self._schemas:
                raise GraphError(f"duplicate node name {spec.name!r}")
            if not is_count(spec.partitions):
                raise GraphError(
                    f"node {spec.name!r}: partitions must be an int, "
                    f"got {spec.partitions!r}"
                )
            if spec.partitions < 1:
                raise GraphError(
                    f"node {spec.name!r}: partitions must be at least 1, "
                    f"got {spec.partitions}"
                )
            if spec.partitions > 1 and not spec.on:
                raise GraphError(
                    f"node {spec.name!r}: partitions={spec.partitions} needs an "
                    "equi-join condition to route by (a θ-free node cannot be "
                    "key-partitioned)"
                )
            if hasattr(catalog, "is_stream") and catalog.is_stream(spec.name):
                raise GraphError(
                    f"node {spec.name!r} clashes with a registered stream name"
                )
            for side, input_name in ((LEFT, spec.left), (RIGHT, spec.right)):
                self._resolve_input(input_name, spec)
                self._consumers.setdefault(input_name, []).append((spec.name, side))
            left_schema = self._schemas[spec.left]
            right_schema = self._schemas[spec.right]
            try:
                theta_from_pairs(left_schema, right_schema, spec.on)
            except SchemaError as error:
                raise GraphError(f"node {spec.name!r}: bad θ {spec.on!r}: {error}") from error
            self._schemas[spec.name] = join_output_schema(
                spec.kind, left_schema, right_schema, spec.right
            )
            seen[spec.name] = spec
        produced = set(seen)
        self._sinks = [
            spec.name
            for spec in self._nodes
            if not any(consumer in produced for consumer, _ in self._consumers.get(spec.name, []))
        ]

    def _resolve_input(self, input_name: str, spec: NodeSpec) -> None:
        if input_name in self._schemas:
            return  # earlier node or already-resolved stream
        try:
            stream = self._catalog.lookup_stream(input_name)
        except Exception as error:
            raise GraphError(
                f"node {spec.name!r}: input {input_name!r} is neither an "
                f"earlier node nor a registered stream"
            ) from error
        self._schemas[input_name] = stream.schema
        if input_name not in self._sources:
            self._sources.append(input_name)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def catalog(self):
        """The catalog the graph's streams are registered in."""
        return self._catalog

    @property
    def nodes(self) -> Tuple[NodeSpec, ...]:
        """Node specs in topological order."""
        return self._nodes

    @property
    def node_names(self) -> List[str]:
        return [spec.name for spec in self._nodes]

    @property
    def partition_counts(self) -> List[int]:
        """Per-node partition degree, in topological node order."""
        return [spec.partitions for spec in self._nodes]

    def partitions_of(self, name: str) -> int:
        """Partition degree of one node (sources are always 1)."""
        for spec in self._nodes:
            if spec.name == name:
                return spec.partitions
        if name in self._schemas:
            return 1
        raise GraphError(f"unknown graph input/node {name!r}")

    @property
    def source_names(self) -> List[str]:
        """Registered streams the graph reads, in first-use order."""
        return list(self._sources)

    @property
    def sink(self) -> str:
        """The graph's result node (the last node with no graph consumer)."""
        return self._sinks[-1]

    def schema_of(self, name: str) -> Schema:
        """Output schema of a node or source."""
        try:
            return self._schemas[name]
        except KeyError:
            raise GraphError(f"unknown graph input/node {name!r}") from None

    def consumers_of(self, name: str) -> List[Edge]:
        """The (node, side) edges fed by a source or node output."""
        return list(self._consumers.get(name, []))

    def merged_events(self) -> EventSpace:
        """The merged event space of every source stream."""
        events = None
        for name in self._sources:
            space = self._catalog.lookup_stream(name).events
            events = space if events is None else events.merge(space)
        return events if events is not None else EventSpace()

    def describe(self) -> str:
        lines = [f"DataflowGraph ({len(self._nodes)} nodes, sink={self.sink})"]
        lines.extend(f"  {spec.describe()}" for spec in self._nodes)
        return "\n".join(lines)
