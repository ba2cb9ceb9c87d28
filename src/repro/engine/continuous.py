"""Physical operators for continuous (stream-backed) plans.

The paper's claim that the NJ window pipeline "integrates into the executor
of a DBMS" extends here to *continuous* execution: a registered stream can be
scanned, and a TP anti / left outer join over two registered streams is
evaluated by the watermark-driven operators of :mod:`repro.stream` — emitting
each output tuple exactly once, when the combined watermark finalizes it.

Within the Volcano executor these operators are sources: a query over
streams runs the continuous pipeline to *completion* (both streams' closing
watermarks) and then streams the finalized result out, so the same
``execute_sql`` entry point serves both stored relations and streams.  Live,
never-ending deployments use :class:`repro.stream.StreamQuery` directly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..core.joins import join_output_schema
from ..options import ExecutionOptions
from ..relation import Schema, TPTuple
from ..runtime.driver import recovery_blocker
from ..stream import StreamDef, StreamEvent, StreamQuery, StreamQueryResult
from .iterators import PhysicalOperator
from .logical import JoinKind


class ContinuousScanOperator(PhysicalOperator):
    """Scan a registered stream by draining its (closing) replay."""

    is_continuous = True

    def __init__(self, stream_def: StreamDef, label: str = "") -> None:
        super().__init__()
        self._stream_def = stream_def
        self._label = label or stream_def.name

    def output_schema(self) -> Schema:
        return self._stream_def.schema

    def input_name(self) -> str:
        return self._stream_def.name or self._label

    def stream_def(self) -> StreamDef:
        """The scanned stream definition (used by the continuous join)."""
        return self._stream_def

    def describe(self) -> str:
        return f"ContinuousScan {self._label} (watermarked replay)"

    def estimated_cost(self) -> float:
        # Stream cardinality is unknown to the planner by definition.
        return 1.0

    def _produce(self) -> Iterator[TPTuple]:
        for element in self._stream_def.replay():
            if isinstance(element, StreamEvent):
                yield element.tuple


class ContinuousJoinOperator(PhysicalOperator):
    """Watermark-driven TP join over two registered streams.

    The operator delegates to :class:`repro.stream.StreamQuery`; the child
    scans appear in the plan tree for EXPLAIN but are not pulled from — the
    join consumes the streams' own replays, interleaved and watermarked.
    """

    is_continuous = True

    def __init__(
        self,
        catalog,
        left: ContinuousScanOperator,
        right: ContinuousScanOperator,
        left_name: str,
        right_name: str,
        kind: JoinKind,
        on: tuple[tuple[str, str], ...],
        config: ExecutionOptions | None = None,
    ) -> None:
        super().__init__()
        self._left = left
        self._right = right
        self._query = StreamQuery(
            catalog,
            kind.value,
            left_name,
            right_name,
            on,
            config=config,
        )
        self._kind = kind
        self._on = on
        #: Read by EXPLAIN to render the ``[parallel n=K]`` annotation.
        self.parallel_workers = self._query.effective_partitions
        #: Runtime transport the partitions run on; EXPLAIN appends
        #: ``transport=...`` when it is not the default thread transport.
        self.parallel_transport = self._query.config.transport
        #: Read by EXPLAIN to render the ``[traced rate=...]`` marker
        #: (``None`` when the config leaves tracing off).
        self.trace_sample_rate = (
            self._query.config.trace_sample_rate if self._query.config.trace else None
        )
        #: Read by EXPLAIN to render the ``[recoverable ckpt=Ns]`` marker
        #: (``False``/``None`` when the options leave seat recovery off).
        self.recoverable = self._query.config.recovery_enabled
        self.recovery_checkpoint_interval = self._query.config.checkpoint_interval
        self.last_result: Optional[StreamQueryResult] = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def output_schema(self) -> Schema:
        return join_output_schema(
            self._kind.value,
            self._left.output_schema(),
            self._right.output_schema(),
            self._right.input_name(),
        )

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return (
            f"ContinuousNJJoin [{self._kind.value}] on {condition} "
            f"(watermark-driven, partitions={self._query.config.partitions})"
        )

    def estimated_cost(self) -> float:
        return self._left.estimated_cost() + self._right.estimated_cost()

    def _produce(self) -> Iterator[TPTuple]:
        self.last_result = self._query.run()
        yield from self.last_result.relation


class DataflowJoinOperator(PhysicalOperator):
    """A multi-way (or early-emitting) stream join tree as one physical node.

    The planner compiles a TP join tree whose leaves are all stream scans
    into a :class:`repro.dataflow.DataflowQuery`; within the Volcano
    executor this operator runs the graph to settlement and streams the sink
    node's settled relation out.  The child scans appear in the plan tree
    for EXPLAIN but are not pulled from — each graph edge consumes its own
    replay.  EXPLAIN renders the ``[dataflow k-node]`` marker from
    :attr:`dataflow_nodes`.
    """

    is_continuous = True

    def __init__(
        self,
        catalog,
        scans: tuple[ContinuousScanOperator, ...],
        nodes: Sequence,
        config: ExecutionOptions | None = None,
    ) -> None:
        super().__init__()
        from ..dataflow import DataflowQuery
        from ..dataflow.compile import compile_graph

        self._scans = scans
        self._query = DataflowQuery(catalog, nodes, config=config)
        #: Read by EXPLAIN to render the ``[dataflow k-node]`` annotation.
        self.dataflow_nodes = len(self._query.graph.nodes)
        #: Per-node partition degrees; EXPLAIN appends ``parts=K1/K2/...``
        #: when any stage fans out.
        self.dataflow_partitions = tuple(self._query.graph.partition_counts)
        #: Runtime transport the graph workers run on; EXPLAIN appends
        #: ``transport=...`` when it is not the default thread transport.
        self.dataflow_transport = self._query.config.transport
        #: Read by EXPLAIN to render the ``[traced rate=...]`` marker
        #: (``None`` when the config leaves tracing off).
        self.trace_sample_rate = (
            self._query.config.trace_sample_rate if self._query.config.trace else None
        )
        #: Read by EXPLAIN: under options that ask for seat recovery, a
        #: graph whose workers are all self-contained renders
        #: ``[recoverable ...]``; any other renders ``[not recoverable:
        #: <cause>]`` (the run itself warns, see ``runtime.driver.run_job``).
        config = self._query.config
        self.not_recoverable = None
        if config.recovery_enabled:
            specs, _stages = compile_graph(self._query.graph, config)
            self.not_recoverable = recovery_blocker(specs)
        self.recoverable = config.recovery_enabled and self.not_recoverable is None
        self.recovery_checkpoint_interval = config.checkpoint_interval
        self.last_result = None

    @property
    def query(self):
        """The compiled dataflow query (exposed for registration/monitoring)."""
        return self._query

    def children(self) -> tuple[PhysicalOperator, ...]:
        return tuple(self._scans)

    def output_schema(self) -> Schema:
        graph = self._query.graph
        return graph.schema_of(graph.sink)

    def describe(self) -> str:
        graph = self._query.graph
        chain = "→".join(spec.kind for spec in graph.nodes)
        mode = "early-emit" if self._query.config.early_emit else "watermark-only"
        parts = ""
        if any(count > 1 for count in self.dataflow_partitions):
            parts = " parts=" + "/".join(
                str(count) for count in self.dataflow_partitions
            )
        return (
            f"DataflowJoin [{chain}] sink={graph.sink}{parts} "
            f"(revision streams, {mode}, workers={self._query.config.transport})"
        )

    def estimated_cost(self) -> float:
        return float(len(self._scans))

    def _produce(self) -> Iterator[TPTuple]:
        self.last_result = self._query.run()
        yield from self.last_result.relation
