"""Worker specs for transport-parallel continuous and dataflow execution.

The *spec* layer of the unified runtime (:mod:`repro.runtime`): the plain
picklable dataclasses every transport rebuilds its workers from.

* :class:`StreamShardSpec` — one shard of a continuous TP join: the worker
  collects its settled outputs and reports them with emit latencies and
  late-drop counters;
* :class:`DataflowNodeSpec` — one *(node, partition)* worker of a dataflow
  graph: watermark channels to min-merge, downstream routing entries, and
  the producer count of the done-sentinel close protocol;
* :func:`graph_node_specs` — compile a
  :class:`~repro.dataflow.DataflowGraph` into worker specs with contiguous
  per-node worker indices.

Emit latencies remain comparable across the process boundary because
``time.perf_counter`` reads ``CLOCK_MONOTONIC``, which is system-wide on the
platforms with ``fork``; the router stamps ingestion before an element can
sit in a queue, so latencies include cross-process queueing time.

Trace context rides the same path: when tracing is on
(:class:`repro.runtime.RuntimeJob` ``trace=True``) each sampled
:class:`~repro.stream.elements.Tagged` element carries a compact
``(trace_id, parent_span_id)`` pair which the compact codecs in
:mod:`repro.parallel.serialize` preserve across the process boundary, and
each worker's spans come back inside its :class:`~repro.runtime.WorkerReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable, List, Optional

from ..columnar import resolve_layout
from ..relation import Schema, TPTuple
from ..runtime import SOURCE_CHANNEL, WorkerReport
from ..stream.elements import LEFT, RIGHT
from ..stream.operators import continuous_join
from .serialize import events_from_probabilities

__all__ = ["DataflowNodeSpec", "StreamShardSpec", "graph_node_specs"]


@dataclass(frozen=True)
class StreamShardSpec:
    """Everything a worker needs to rebuild one continuous-join shard.

    ``event_probabilities`` ships the marginal probabilities of the base
    events when the query materializes probabilities inline: workers rebuild
    an event space from it and compute output probabilities with their
    maintainer-owned per-key computers.  ``None`` leaves probabilities unset
    (the caller computes them later, the default).

    The runtime-protocol fields have single-shard defaults: a shard has two
    producers (the router sends one done sentinel per source edge), one
    watermark channel per side (that side's source edge), no downstream — it
    collects outputs and reports them.
    """

    kind: str
    left_attributes: tuple
    right_attributes: tuple
    on: tuple
    left_name: str = "r"
    right_name: str = "s"
    event_probabilities: Optional[dict] = None
    index: int = 0
    producers: int = 2
    left_channels: tuple = (SOURCE_CHANNEL,)
    right_channels: tuple = (SOURCE_CHANNEL,)
    downstream: tuple = ()
    #: Window-maintainer state layout, already resolved driver-side
    #: (``resolve_layout``) so a numpy-less worker is never asked for columns.
    #: ``"columnar"`` additionally switches socket micro-batch frames to the
    #: binary wire codec (:mod:`repro.runtime.wire`).
    layout: str = "object"

    #: Stream shards have no downstream: settled outputs are collected by
    #: the worker loop and shipped back in the report.
    collect_outputs = True
    #: Shards emit nothing downstream, so they need no watermark channel id.
    channel_id = None

    def build_join(self):
        """Instantiate the continuous join this spec describes."""
        materialize = self.event_probabilities is not None
        return continuous_join(
            self.kind,
            Schema(tuple(self.left_attributes)),
            Schema(tuple(self.right_attributes)),
            self.on,
            left_name=self.left_name,
            right_name=self.right_name,
            events=events_from_probabilities(self.event_probabilities)
            if materialize
            else None,
            materialize_probabilities=materialize,
            layout=self.layout,
        )

    def report(self, join, outputs: Optional[List[TPTuple]]) -> WorkerReport:
        """Package this shard's settled outputs and counters."""
        stats = join.maintainer.stats
        return WorkerReport(
            index=self.index,
            outputs=list(outputs or []),
            emit_latencies=list(join.emit_latencies),
            late_dropped=stats.late_positives_dropped + stats.late_negatives_dropped,
        )


# --------------------------------------------------------------------------- #
# dataflow graphs: worker-per-(node, partition) specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DataflowNodeSpec:
    """Everything a worker needs to run one dataflow node partition.

    One spec — and one runtime worker — exists per *(node, partition)*: a
    node with ``NodeSpec.partitions = K`` fans out into K shared-nothing
    workers over disjoint slices of its key space, multiplying the pipeline
    axis (worker per chained node) by the partition axis.

    ``downstream`` lists ``(first worker index, consumer partitions, side,
    key indices)`` routing entries: revisions go to ``first +
    stable_hash(key) % partitions`` (the key is the output fact projected on
    ``key indices`` — the consumer θ's attributes for that side), watermarks
    are broadcast to all of the consumer's partitions.  ``producers`` is the
    number of incoming FIFO channels (parent source edges plus upstream
    partition workers) — the count of done sentinels to await before
    closing.  ``left_channels`` / ``right_channels`` name those channels so
    the worker can min-merge per-channel watermarks (the stage output
    watermark = min over the upstream partitions).

    ``tap`` / ``probe`` are optional in-process observation hooks (the
    serving layer's seam): ``tap(channel_id, element)`` is called with every
    output element the worker dispatches, ``probe(channel_id, join)`` with
    the operator instance right after construction.  Both are callables, so
    a spec carrying them cannot cross a process/socket boundary — the graph
    driver rejects that combination before starting any worker.
    """

    index: int
    node_index: int
    name: str
    kind: str
    partition: int
    partitions: int
    left_attributes: tuple
    right_attributes: tuple
    on: tuple
    left_name: str
    right_name: str
    downstream: tuple
    producers: int
    left_channels: tuple = ()
    right_channels: tuple = ()
    early_emit: bool = False
    event_probabilities: Optional[dict] = None
    #: Resolved window-maintainer state layout (see :class:`StreamShardSpec`).
    layout: str = "object"
    tap: Optional[Callable] = dataclass_field(default=None, repr=False, compare=False)
    probe: Optional[Callable] = dataclass_field(default=None, repr=False, compare=False)

    #: Dataflow workers route downstream; settled outputs are harvested from
    #: the join itself at report time.
    collect_outputs = False

    @property
    def channel_id(self) -> tuple:
        """The watermark channel this worker's outputs arrive on downstream."""
        return ("node", self.node_index, self.partition)

    def build_join(self):
        """Instantiate the retractable join this spec describes."""
        from ..dataflow.operators import RevisionJoin

        materialize = self.event_probabilities is not None
        return RevisionJoin(
            self.kind,
            Schema(tuple(self.left_attributes)),
            Schema(tuple(self.right_attributes)),
            self.on,
            left_name=self.left_name,
            right_name=self.right_name,
            early_emit=self.early_emit,
            events=events_from_probabilities(self.event_probabilities)
            if materialize
            else None,
            materialize_probabilities=materialize,
            layout=self.layout,
        )

    def report(self, join, outputs: Optional[List[TPTuple]]) -> WorkerReport:
        """Package this partition's settled windows and revision counters."""
        stats = join.stats
        return WorkerReport(
            index=self.index,
            outputs=list(join.settled_outputs.values()),
            emit_latencies=list(join.emit_latencies),
            emit_event_lags=list(join.emit_event_lags),
            stats=(
                stats.emits,
                stats.retracts,
                stats.refines,
                stats.groups_published_early,
                stats.groups_settled,
                stats.inputs_retracted,
            ),
        )


def graph_node_specs(graph, config, taps=None, probes=None) -> List[DataflowNodeSpec]:
    """Compile a :class:`~repro.dataflow.DataflowGraph` into worker specs.

    One spec per (node, partition); worker indices are contiguous per node
    (``first_worker[i] .. first_worker[i] + partitions_i - 1``), so routing
    entries only need the first index and the partition count.

    ``taps`` / ``probes`` optionally map node names to observation callables
    attached to every partition spec of that node (see
    :class:`DataflowNodeSpec`); in-process transports only.
    """
    from ..dataflow.executor import channel_topology, downstream_table

    node_index = {name: index for index, name in enumerate(graph.node_names)}
    parts = graph.partition_counts
    first_worker: List[int] = []
    total = 0
    for count in parts:
        first_worker.append(total)
        total += count
    event_probabilities = None
    if config.materialize_probabilities:
        events = graph.merged_events()
        event_probabilities = {
            name: events.probability(name) for name in events.names()
        }
    # Producer channels per node: one per incoming source edge, plus one per
    # upstream partition worker per edge (every partition of the consumer
    # receives broadcast watermarks from each of them).
    producers = [0] * len(graph.nodes)
    for source in graph.source_names:
        for consumer, _side in graph.consumers_of(source):
            producers[node_index[consumer]] += 1
    downstream_nodes = [tuple(edges) for edges in downstream_table(graph, node_index)]
    for index, edges in enumerate(downstream_nodes):
        for target, _side in edges:
            producers[target] += parts[index]
    channels = channel_topology(graph, node_index)
    specs = []
    for index, spec in enumerate(graph.nodes):
        routing = []
        for target, side in downstream_nodes[index]:
            consumer = graph.nodes[target]
            consumer_side_schema = graph.schema_of(
                consumer.left if side == LEFT else consumer.right
            )
            key_indices = tuple(
                consumer_side_schema.index(pair[0] if side == LEFT else pair[1])
                for pair in consumer.on
            )
            routing.append((first_worker[target], parts[target], side, key_indices))
        for partition in range(spec.partitions):
            specs.append(
                DataflowNodeSpec(
                    index=first_worker[index] + partition,
                    node_index=index,
                    name=spec.name,
                    kind=spec.kind,
                    partition=partition,
                    partitions=spec.partitions,
                    left_attributes=graph.schema_of(spec.left).attributes,
                    right_attributes=graph.schema_of(spec.right).attributes,
                    on=spec.on,
                    left_name=spec.left,
                    right_name=spec.right,
                    downstream=tuple(routing),
                    producers=producers[index],
                    left_channels=tuple(channels[index][LEFT]),
                    right_channels=tuple(channels[index][RIGHT]),
                    early_emit=config.early_emit,
                    event_probabilities=event_probabilities,
                    layout=resolve_layout(config.layout),
                    tap=(taps or {}).get(spec.name),
                    probe=(probes or {}).get(spec.name),
                )
            )
    return specs

