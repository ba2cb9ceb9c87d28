"""Physical operators for continuous (stream-backed) plans.

The paper's claim that the NJ window pipeline "integrates into the executor
of a DBMS" extends here to *continuous* execution: a registered stream can be
scanned, and every TP join tree over registered streams — one join or a
chain, with early emission on or off — is one :class:`DataflowJoinOperator`
running a :class:`repro.dataflow.DataflowQuery`, whose settled output equals
the batch join.

Within the Volcano executor these operators are sources: a query over
streams runs the continuous pipeline to *completion* (every stream's closing
watermark) and then streams the settled result out, so the same
``execute_sql`` entry point serves both stored relations and streams.  Live,
never-ending deployments use the query classes directly.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..dataflow import DataflowQuery
from ..dataflow.compile import compile_graph
from ..options import ExecutionOptions
from ..relation import Schema, TPTuple
from ..runtime.driver import recovery_blocker
from ..stream import StreamDef, StreamEvent
from .iterators import PhysicalOperator


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

    def _produce(self) -> Iterator[TPTuple]:
        for element in self._stream_def.replay():
            if isinstance(element, StreamEvent):
                yield element.tuple


class DataflowJoinOperator(PhysicalOperator):
    """A stream join tree — one join or a chain — as one physical node.

    The planner compiles every TP join tree whose leaves are all stream
    scans into a :class:`repro.dataflow.DataflowQuery`; within the Volcano
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
        self._scans = scans
        self._query = DataflowQuery(catalog, nodes, config=config)
        config = self._query.config
        #: Read by EXPLAIN to render the ``[dataflow k-node]`` annotation.
        self.dataflow_nodes = len(self._query.graph.nodes)
        #: Per-node partition degrees; EXPLAIN appends ``parts=K1/K2/...``
        #: when any stage fans out.
        self.dataflow_partitions = tuple(self._query.graph.partition_counts)
        #: The transport a run uses (a one-worker plan runs inline); EXPLAIN
        #: appends ``transport=...`` when it is an out-of-process one.
        self.dataflow_transport = self._query.transport
        #: Read by EXPLAIN to render the ``[traced rate=...]`` marker
        #: (``None`` when the config leaves tracing off).
        self.trace_sample_rate = config.trace_sample_rate if config.trace else None
        #: Read by EXPLAIN: under options that ask for seat recovery, a
        #: graph whose workers are all self-contained renders
        #: ``[recoverable ...]``; any other renders ``[not recoverable:
        #: <cause>]`` (the run itself warns, see ``runtime.driver.run_job``).
        self.not_recoverable = None
        if config.recovery_enabled:
            specs, _stages = compile_graph(self._query.graph, config)
            self.not_recoverable = recovery_blocker(specs)
        self.recoverable = config.recovery_enabled and self.not_recoverable is None
        self.recovery_checkpoint_interval = config.checkpoint_interval
        self.last_result = None

    @property
    def query(self) -> DataflowQuery:
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
            f"({mode}, workers={self.dataflow_transport})"
        )

    def _produce(self) -> Iterator[TPTuple]:
        self.last_result = self._query.run()
        yield from self.last_result.relation
