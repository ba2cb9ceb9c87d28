"""Continuous queries: registered streams and the one-node stream query.

A :class:`StreamQuery` binds a continuous TP join to two *registered
streams* (:class:`StreamDef` entries held by the engine catalog) and
executes it to finalization.  Execution is hash-partitioned: with an
equi-join θ, every event is routed to a worker by the stable hash of its
join key — all events that can ever form a window together share a key, so
partitions are independent — and watermarks are broadcast to every worker.

The query is a one-node :class:`~repro.dataflow.DataflowQuery`: it builds
its :class:`~repro.dataflow.NodeSpec` at construction, runs through
:meth:`DataflowQuery.run <repro.dataflow.DataflowQuery.run>` like every
other continuous query, and only shapes its own result.
``ExecutionOptions.partitions`` sets the node's degree (one partition for an
empty θ, which cannot be key-partitioned) and ``ExecutionOptions.transport``
decides where the partition workers live (``"threads"`` / ``"processes"`` /
``"sockets"``, see :mod:`repro.runtime`); a one-worker query runs inline in
the calling thread.

The module avoids importing :mod:`repro.engine`; the catalog is used through
its ``lookup_stream`` method only, so the engine can depend on this package
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from ..dataflow.executor import GraphRunOutcome
from ..dataflow.graph import NodeSpec
from ..dataflow.query import DataflowQuery, summarize_latency_ms
from ..lineage import EventSpace
from ..obs.collector import RunIntrospection
from ..options import ExecutionOptions
from ..relation import Schema, TPRelation
from .elements import StreamElement


@dataclass(frozen=True)
class StreamStats:
    """The expected size of one registered stream.

    A stream is unbounded in principle, so ``cardinality`` is an *expected*
    figure — a replay of a finite relation knows it exactly.  The planner
    does not read it.
    """

    cardinality: int


@dataclass(frozen=True)
class StreamDef:
    """A registered stream: schema, event space and a replayable element source.

    ``replay`` returns a *fresh* iterator of stream elements each time it is
    called, so the same registered stream can serve several queries.
    ``stats`` optionally carries the expected cardinality.
    """

    schema: Schema
    events: EventSpace
    replay: Callable[[], Iterable[StreamElement]]
    name: str = ""
    stats: Optional[StreamStats] = None


@dataclass
class StreamQueryResult(RunIntrospection):
    """The finalized output of a continuous query run, with run statistics."""

    relation: TPRelation
    outputs_emitted: int
    emit_latencies: List[float] = field(default_factory=list)
    partitions: int = 1
    #: The transport that actually ran (``inline`` for single-partition
    #: runs; the fallback transport when workers could not start).
    workers: str = "threads"

    def latency_summary(self) -> dict:
        """Mean / p50 / p95 / max emit latency in milliseconds."""
        return summarize_latency_ms(self.emit_latencies)

    def explain_analyze(self) -> str:
        """``EXPLAIN ANALYZE``-style report of the finished run.

        Run shape and latency percentiles always; worker metrics when the
        run was instrumented; one line per seat recovery when any failure
        was survived.
        """
        latency = self.latency_summary()
        lines = [
            f"StreamQuery run: backend={self.workers} "
            f"partitions={self.partitions} "
            f"events={self.events_processed} outputs={self.outputs_emitted} "
            f"elapsed={self.elapsed_seconds:.3f}s "
            f"({self.events_per_second:.0f} ev/s) "
            f"late_dropped={self.late_dropped} "
            f"backpressure_blocks={self.backpressure_blocks}",
            f"  emit latency: p50 {latency['p50_ms']:.2f}ms "
            f"p95 {latency['p95_ms']:.2f}ms max {latency['max_ms']:.2f}ms",
        ]
        return "\n".join(lines + self._telemetry_lines())


class StreamQuery(DataflowQuery):
    """A continuous TP join registered against catalogued streams.

    Args:
        catalog: any object with ``lookup_stream(name) -> StreamDef`` (the
            engine catalog satisfies this).
        kind: one of the five Table II kinds (``"anti"``, ``"inner"``,
            ``"left_outer"``, ``"right_outer"``, ``"full_outer"``).
        left: name of the positive (left) registered stream.
        right: name of the negative (right) registered stream.
        on: ``(left_attribute, right_attribute)`` equality pairs (θ).
        config: :class:`repro.ExecutionOptions`; defaults to
            single-partition inline runs.  Options apply as they do to any
            one-node graph: with ``early_emit`` the node publishes revisions
            and settles to the same relation.
    """

    def __init__(
        self,
        catalog,
        kind: str,
        left: str,
        right: str,
        on: Sequence[tuple[str, str]] = (),
        config: ExecutionOptions | None = None,
    ) -> None:
        config = config or ExecutionOptions()
        on = tuple(on)
        # An unknown stream fails with the catalog's own error; the graph
        # validates the kind and θ.
        catalog.lookup_stream(left)
        catalog.lookup_stream(right)
        node = NodeSpec(
            f"{kind}({left},{right})",
            kind,
            left,
            right,
            on,
            # More than one partition needs an equi-join key to route by.
            config.partitions if on else 1,
        )
        super().__init__(catalog, [node], config)

    @property
    def effective_partitions(self) -> int:
        """The partition count a run will actually use."""
        return self.graph.nodes[0].partitions

    def describe(self) -> str:
        (node,) = self.graph.nodes
        condition = " AND ".join(f"{left} = {right}" for left, right in node.on) or "true"
        return (
            f"StreamQuery[{node.kind}] {node.left} × {node.right} on {condition} "
            f"(partitions={node.partitions}, workers={self.transport})"
        )

    def _build_result(self, outcome: GraphRunOutcome, elapsed: float) -> StreamQueryResult:
        (node,) = self.graph.nodes
        outputs = outcome.settled[node.name]
        relation = TPRelation(
            self.graph.schema_of(node.name),
            outputs,
            self.graph.merged_events(),
            name=self.describe(),
            check_constraint=False,
        )
        return StreamQueryResult(
            relation=relation,
            outputs_emitted=len(outputs),
            emit_latencies=outcome.emit_latencies[node.name],
            partitions=node.partitions,
            workers=outcome.backend,
            **self._introspection(outcome, elapsed),
        )
