"""The graph compiler: a :class:`~repro.dataflow.DataflowGraph` as runtime work.

Every continuous run — a :class:`~repro.stream.StreamQuery` (a one-node
graph), a :class:`~repro.dataflow.DataflowQuery`, a serving plan group — is
compiled here into what the one router (:func:`repro.runtime.driver.run_job`)
drives:

* :class:`DataflowNodeSpec` — the one worker spec, one per *(node,
  partition)*: a plain picklable dataclass every transport rebuilds its
  worker from;
* one :class:`~repro.runtime.driver.Stage` per node — where its source
  elements are key-routed;
* :func:`source_edges` — one fresh replay per (source → node input) edge.

Every node, whatever its shape, runs the one operator,
:class:`~repro.dataflow.RevisionJoin`.  What the shape decides is what the
node's output looks like: one that no downstream node and no tap reads
(:attr:`DataflowNodeSpec.read`) wraps nothing and derives no output
watermark, and an early-emitting one publishes each group once, settled,
when it closes.  A node fed by sources only, read by nothing and with early
emission off is :attr:`~DataflowNodeSpec.checkpointable`: the recovery rule
re-executes its workers seat by seat (:mod:`repro.recovery`), and the
router stamps its right-side events only where they act as positives.

Emit latencies remain comparable across the process boundary because
``time.perf_counter`` reads ``CLOCK_MONOTONIC``, which is system-wide on the
platforms with ``fork``; the router stamps ingestion before an element can
sit in a queue, so latencies include cross-process queueing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..core.joins import REVERSE_KINDS
from ..parallel.serialize import events_from_probabilities
from ..relation import Schema
from ..runtime import SOURCE_CHANNEL, ChannelWatermarks, WorkerReport
from ..runtime.driver import SourceEdge, Stage
from ..stream.elements import LEFT, RIGHT
from ..stream.operators import theta_from_pairs
from .graph import DataflowGraph
from .operators import RevisionJoin

__all__ = [
    "DataflowNodeSpec",
    "compile_graph",
    "output_watermarks",
    "source_edges",
]


@dataclass(frozen=True)
class DataflowNodeSpec:
    """Everything a worker needs to run one dataflow node partition.

    One spec — and one runtime worker — exists per *(node, partition)*: a
    node with ``NodeSpec.partitions = K`` fans out into K shared-nothing
    workers over disjoint slices of its key space, multiplying the pipeline
    axis (worker per chained node) by the partition axis.

    ``downstream`` lists ``(first worker index, consumer partitions, side,
    key indices)`` routing entries: revisions go to ``first +
    stable_key_hash(key) % partitions`` (the key is the output fact projected
    on ``key indices`` — the consumer θ's attributes for that side), watermarks
    are broadcast to all of the consumer's partitions.  ``producers`` is the
    number of incoming FIFO channels (parent source edges plus upstream
    partition workers) — the count of done sentinels to await before
    closing.  ``left_channels`` / ``right_channels`` name those channels so
    the worker can min-merge per-channel watermarks (the stage output
    watermark = min over the upstream partitions).

    ``event_probabilities`` ships the marginal probabilities of the base
    events when the run materializes probabilities inline: workers rebuild
    an event space from it.

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
    tap: Optional[Callable] = dataclass_field(default=None, repr=False, compare=False)
    probe: Optional[Callable] = dataclass_field(default=None, repr=False, compare=False)

    @property
    def channel_id(self) -> tuple:
        """The watermark channel this worker's outputs arrive on downstream."""
        return _node_channel(self.node_index, self.partition)

    @property
    def read(self) -> bool:
        """Whether anything reads this partition's revisions as they leave
        it: a downstream node, or a tap (a serve hub, ``iter_revisions``)."""
        return bool(self.downstream) or self.tap is not None

    @property
    def checkpointable(self) -> bool:
        """Whether a snapshot of this partition's worker is all its state:
        fed by sources only, read by nothing, early emission off.  Nothing
        it holds is in flight to or from a peer, and nothing it published
        is provisional, so :mod:`repro.recovery` may re-execute it seat by
        seat from a checkpoint."""
        return (
            not self.early_emit
            and not self.read
            and all(
                channel == SOURCE_CHANNEL
                for channel in self.left_channels + self.right_channels
            )
        )

    def build_join(self) -> RevisionJoin:
        """Instantiate the operator this spec describes, told whether
        anything reads it (:attr:`read`)."""
        materialize = self.event_probabilities is not None
        return RevisionJoin(
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
            early_emit=self.early_emit,
            read=self.read,
        )

    def report(self, join: RevisionJoin) -> WorkerReport:
        """Package this partition's settled output and counters.

        ``outputs`` is the operator's settled list and ``stats`` the
        counter tuple of :class:`~repro.dataflow.RevisionJoinStats`.  A
        partition nothing reads sent each group once, settled, so its
        revision counters read as a watermark-only node's; an early one's
        ``groups_published_early``, emit latencies and event lags still
        record when each group first had windows.
        """
        stats = join.stats
        late = join.maintainer.stats
        return WorkerReport(
            index=self.index,
            outputs=list(join.settled),
            emit_latencies=list(join.emit_latencies),
            emit_event_lags=list(join.emit_event_lags),
            late_dropped=late.late_positives_dropped + late.late_negatives_dropped,
            stats=(
                stats.emits,
                stats.retracts,
                stats.refines,
                stats.groups_published_early,
                stats.groups_settled,
                stats.inputs_retracted,
            ),
        )


def _node_channel(node_index: int, partition: int) -> tuple:
    return ("node", node_index, partition)


def output_watermarks(graph: DataflowGraph, name: str) -> ChannelWatermarks:
    """A min-merge over one node's per-partition output watermarks.

    What a consumer of the node's output — a tap, a revision iterator —
    feeds the watermarks it sees to, so it reads the stage's true output
    frontier.
    """
    index = graph.node_names.index(name)
    return ChannelWatermarks(
        [_node_channel(index, partition) for partition in range(graph.partitions_of(name))]
    )


def source_edges(graph: DataflowGraph, node_index: Dict[str, int]) -> List[SourceEdge]:
    """One fresh replay per (source → node input) edge of the graph.

    Each edge holds the replay itself (the router iterates it), so a replay
    that keeps ingestion counters (:class:`~repro.stream.StreamSource`)
    can be read after the run.
    """
    edges: List[SourceEdge] = []
    for source in graph.source_names:
        stream_def = graph.catalog.lookup_stream(source)
        for consumer, side in graph.consumers_of(source):
            edges.append((node_index[consumer], side, stream_def.replay()))
    return edges


def _downstream_table(
    graph: DataflowGraph, node_index: Dict[str, int]
) -> List[List[Tuple[int, str]]]:
    """Per node: the (consumer index, side) edges its output feeds."""
    return [
        [
            (node_index[consumer], side)
            for consumer, side in graph.consumers_of(spec.name)
            if consumer in node_index
        ]
        for spec in graph.nodes
    ]


def _channel_topology(
    graph: DataflowGraph, node_index: Dict[str, int]
) -> List[Dict[str, List[Hashable]]]:
    """Per node: the watermark channels feeding each input side.

    A source edge contributes the one ``SOURCE_CHANNEL`` (a side has exactly
    one input, so source edges never share a tracker); an upstream node
    contributes one ``("node", index, partition)`` channel per partition.
    Every partition of the consumer tracks the same channel set — watermarks
    are broadcast.
    """
    channels: List[Dict[str, List[Hashable]]] = [
        {LEFT: [], RIGHT: []} for _ in graph.nodes
    ]
    for source in graph.source_names:
        for consumer, side in graph.consumers_of(source):
            channels[node_index[consumer]][side].append(SOURCE_CHANNEL)
    for index, spec in enumerate(graph.nodes):
        for consumer, side in graph.consumers_of(spec.name):
            if consumer in node_index:
                for partition in range(spec.partitions):
                    channels[node_index[consumer]][side].append(
                        _node_channel(index, partition)
                    )
    return channels


def compile_graph(
    graph: DataflowGraph, config, taps=None, probes=None
) -> Tuple[List[DataflowNodeSpec], List[Stage]]:
    """Compile a graph into worker specs and one routing stage per node.

    One spec per (node, partition); worker indices are contiguous per node
    (``first_worker[i] .. first_worker[i] + partitions_i - 1``), so routing
    entries and stages only need the first index and the partition count.
    ``config`` is the run's :class:`repro.ExecutionOptions`.

    ``taps`` / ``probes`` optionally map node names to observation callables
    attached to every partition spec of that node (see
    :class:`DataflowNodeSpec`); in-process transports only.
    """
    taps = taps or {}
    probes = probes or {}
    node_index = {name: index for index, name in enumerate(graph.node_names)}
    parts = graph.partition_counts
    first_worker: List[int] = []
    total = 0
    for count in parts:
        first_worker.append(total)
        total += count
    event_probabilities = None
    if config.materialize_probabilities:
        event_probabilities = graph.merged_events().as_dict()
    # Producer channels per node: one per incoming source edge, plus one per
    # upstream partition worker per edge (every partition of the consumer
    # receives broadcast watermarks from each of them).
    producers = [0] * len(graph.nodes)
    for source in graph.source_names:
        for consumer, _side in graph.consumers_of(source):
            producers[node_index[consumer]] += 1
    downstream_nodes = _downstream_table(graph, node_index)
    for index, edges in enumerate(downstream_nodes):
        for target, _side in edges:
            producers[target] += parts[index]
    channels = _channel_topology(graph, node_index)
    specs: List[DataflowNodeSpec] = []
    stages: List[Stage] = []
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
        left_schema = graph.schema_of(spec.left)
        right_schema = graph.schema_of(spec.right)
        node_specs = [
            DataflowNodeSpec(
                index=first_worker[index] + partition,
                node_index=index,
                name=spec.name,
                kind=spec.kind,
                partition=partition,
                partitions=spec.partitions,
                left_attributes=left_schema.attributes,
                right_attributes=right_schema.attributes,
                on=spec.on,
                left_name=spec.left,
                right_name=spec.right,
                downstream=tuple(routing),
                producers=producers[index],
                left_channels=tuple(channels[index][LEFT]),
                right_channels=tuple(channels[index][RIGHT]),
                early_emit=config.early_emit,
                event_probabilities=event_probabilities,
                tap=taps.get(spec.name),
                probe=probes.get(spec.name),
            )
            for partition in range(spec.partitions)
        ]
        # A checkpointable node stamps the right side only when its events
        # act as positives too (right/full outer); any other node treats
        # both inputs as revisable, so both sides are stamped.
        stages.append(
            Stage(
                first_worker[index],
                spec.partitions,
                theta_from_pairs(left_schema, right_schema, spec.on),
                spec.kind in REVERSE_KINDS or not node_specs[0].checkpointable,
            )
        )
        specs.extend(node_specs)
    return specs, stages
