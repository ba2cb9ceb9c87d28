"""Dataflow graph execution over the unified runtime layer.

:func:`run_graph` compiles the graph into worker specs — one per *(node,
partition)* — plus the source edges and per-node routing stages, hands them
to the one router (:func:`repro.runtime.driver.run_job`), and merges the
worker reports per node in canonical order.  The transport decides where
the workers live:

* **inline** — every worker in the caller's thread, elements flowing
  depth-first: each output revision of a node is delivered to its consumers
  before the next input element is read.  The fast path for small streams
  and the engine's SQL entry point.
* **threads** — one worker thread per node partition over bounded channel
  inboxes, so a slow downstream operator backpressures its producers (and,
  transitively, the sources) instead of queueing without bound.
* **processes** — one forked OS process per node partition over bounded
  queues, elements crossing in the compact revision codec.
* **sockets** — one TCP endpoint per node partition (driver-spawned local
  processes, or remote ``python -m repro.runtime.worker`` hosts named in a
  :class:`~repro.runtime.Placement`) — distributed execution.

The graph parallelises along **two independent axes**:

* *pipeline* — chained operators run concurrently (one worker set per node);
* *partition* — a node with ``NodeSpec.partitions = K`` fans out into K
  key-partitioned workers.  Revision elements are routed by the stable hash
  of the node's equi-join key (:func:`repro.parallel.plan.stable_hash`, so
  routing is reproducible across runs and interpreters), watermarks are
  broadcast to every partition of the stage, and the stage's *output*
  watermark is the min over its partitions' derived watermarks.

The min-over-partitions rule is enforced without cross-partition shared
state: every worker input side tracks the last watermark per *channel* (one
channel per upstream partition or source edge) in a
:class:`~repro.runtime.ChannelWatermarks` and feeds its join the merged
minimum.  Channels are FIFO, so by the time a channel's watermark is
applied, every revision that watermark covers has already been processed —
the standard per-channel frontier argument.

Termination needs no out-of-band protocol: every source replay ends with a
``CLOSED`` watermark, each partition's derived watermark therefore reaches
``CLOSED`` once all its groups settle, and the cascade closes the whole
graph.  The router still sends one done sentinel per source edge (and each
worker one per downstream channel), so a malformed source cannot leave the
close protocol hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..parallel.batch import canonical_order
from ..parallel.plan import stable_hash
from ..relation import TPTuple
from ..runtime import SOURCE_CHANNEL, ChannelWatermarks
from ..runtime.driver import SourceEdge, Stage, merge_edges, run_job
from ..runtime.transport import TRANSPORTS
from ..stream.elements import LEFT, RIGHT, StreamEvent
from .graph import DataflowGraph
from .operators import RevisionJoin, RevisionJoinStats
from .revision import Revision

__all__ = [
    "ChannelWatermarks",
    "GraphRunOutcome",
    "channel_topology",
    "downstream_table",
    "merge_edges",
    "route_partition",
    "run_graph",
    "source_edges",
    "stage_watermark",
]


@dataclass
class GraphRunOutcome:
    """Per-node results of one graph execution, backend-independent.

    Partitioned stages are already merged: ``settled`` holds each node's
    partition outputs in the canonical deterministic order (the order-stable
    merge contract shared with :func:`repro.parallel.batch.canonical_order`),
    ``stats`` the summed partition counters.
    """

    settled: Dict[str, List[TPTuple]]
    stats: Dict[str, RevisionJoinStats]
    emit_latencies: Dict[str, List[float]]
    emit_event_lags: Dict[str, List[float]]
    events_processed: int = 0
    backpressure_blocks: int = 0
    backend: str = "inline"
    #: Final per-worker metrics snapshots (empty unless the run was
    #: instrumented via ``config.metrics`` or an attached collector).
    metrics: List[dict] = field(default_factory=list)


def stage_watermark(partition_joins: Sequence[RevisionJoin]) -> float:
    """A stage's output watermark: the min over its partitions' derived ones."""
    return min(join.derived_watermark() for join in partition_joins)


def route_partition(join: RevisionJoin, side: str, element, partitions: int) -> int:
    """The partition a revision/event element routes to on one node input.

    Uses the node θ's join key for the element's side and the stable
    (PYTHONHASHSEED-independent) hash shared with the batch shard planner,
    so all of an input key's elements — emits and the retractions that must
    unwind them — land in the same partition, in channel order.
    """
    if partitions <= 1:
        return 0
    if isinstance(element, StreamEvent):
        tp_tuple = element.tuple
    elif isinstance(element, Revision):
        tp_tuple = element.tuple
    else:
        raise TypeError(f"cannot key-route element {element!r}")
    theta = join.theta
    key = theta.left_key(tp_tuple) if side == LEFT else theta.right_key(tp_tuple)
    return stable_hash(key) % partitions


def source_edges(graph: DataflowGraph, node_index: Dict[str, int]) -> List[SourceEdge]:
    """One fresh replay per (source → node input) edge of the graph."""
    edges: List[SourceEdge] = []
    for source in graph.source_names:
        stream_def = graph.catalog.lookup_stream(source)
        for consumer, side in graph.consumers_of(source):
            edges.append((node_index[consumer], side, iter(stream_def.replay())))
    return edges


def downstream_table(graph: DataflowGraph, node_index: Dict[str, int]) -> List[List[Tuple[int, str]]]:
    """Per node: the (consumer index, side) edges its output feeds."""
    table: List[List[Tuple[int, str]]] = []
    for spec in graph.nodes:
        table.append(
            [
                (node_index[consumer], side)
                for consumer, side in graph.consumers_of(spec.name)
                if consumer in node_index
            ]
        )
    return table


def channel_topology(
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
                        ("node", index, partition)
                    )
    return channels


# --------------------------------------------------------------------------- #
# the graph driver
# --------------------------------------------------------------------------- #
def run_graph(
    graph: DataflowGraph,
    config,
    merge_seed: Optional[int] = None,
    transport: str = "inline",
    taps: Optional[Dict[str, object]] = None,
    probes: Optional[Dict[str, object]] = None,
    cancel: Optional[object] = None,
    collector: Optional[object] = None,
    trace_collector: Optional[object] = None,
) -> GraphRunOutcome:
    """Execute a dataflow graph on one runtime transport.

    Compiles the graph into one worker spec per *(node, partition)* and one
    routing stage per node, lets the router
    (:func:`repro.runtime.driver.run_job`) drive the merged source edges
    through them, and merges the workers' reports into a backend-independent
    :class:`GraphRunOutcome` (canonical settled order, summed stats).
    ``config`` is the run's :class:`repro.ExecutionOptions`.

    ``taps`` / ``probes`` map node names to observation callables — the
    serving layer's seam: a tap sees every output element of the node's
    partitions live (``tap(channel_id, element)``), a probe sees each
    operator instance at worker start-up (``probe(channel_id, join)``).
    Callables cannot cross a process/socket boundary, so both require an
    in-process transport (``inline`` / ``threads``).

    ``collector`` / ``trace_collector`` (:class:`repro.obs.MetricsCollector`
    / :class:`repro.obs.TraceCollector`) and ``cancel`` are the router's:
    unlike taps/probes, metrics snapshots and span shipments cross the
    transport boundary inside the existing frame protocol, so they work
    identically on all four transports; once ``cancel`` is set the graph
    settles early over what was already ingested — the cooperative stop
    used by standing-query lifecycle management.

    When the process or socket workers cannot start, the run degrades to
    the thread transport over the same untouched replays;
    ``GraphRunOutcome.backend`` records what actually ran.
    """
    # Imported lazily: repro.parallel imports this module's graph helpers,
    # so a top-level import here would be circular during package init.
    from ..parallel.stream_exec import graph_node_specs
    from ..stream.operators import theta_from_pairs

    if (taps or probes) and transport not in TRANSPORTS[:2]:
        raise ValueError(
            f"taps/probes are in-process callables and cannot cross the "
            f"{transport!r} transport's serialization boundary; use the "
            "'inline' or 'threads' transport for live element observation, "
            "or — for instrumentation that *does* cross every transport "
            "boundary, including remote socket workers — enable the metrics "
            "subsystem instead: set metrics=True on the query config (or "
            "pass a repro.obs.MetricsCollector as `collector`) and read "
            "DataflowQuery.metrics() / StreamQuery.metrics() live or the "
            "outcome's metrics snapshots after the run"
        )
    for label, hooks in (("taps", taps), ("probes", probes)):
        unknown = sorted(set(hooks or ()) - set(graph.node_names))
        if unknown:
            raise ValueError(f"{label} name unknown graph nodes: {unknown}")
    node_index = {name: index for index, name in enumerate(graph.node_names)}
    stages: List[Stage] = []
    total = 0
    for spec in graph.nodes:
        theta = theta_from_pairs(
            graph.schema_of(spec.left), graph.schema_of(spec.right), spec.on
        )
        # Every dataflow input is revisable, so both sides are stamped.
        stages.append(Stage(total, spec.partitions, theta, True))
        total += spec.partitions
    reports, events_processed, blocks, backend, _recoveries = run_job(
        graph_node_specs(graph, config, taps=taps, probes=probes),
        source_edges(graph, node_index),
        stages,
        config,
        transport,
        merge_seed,
        collector=collector,
        trace_collector=trace_collector,
        cancel=cancel,
    )
    settled: Dict[str, List[TPTuple]] = {}
    stats: Dict[str, RevisionJoinStats] = {}
    latencies: Dict[str, List[float]] = {}
    lags: Dict[str, List[float]] = {}
    for spec, stage in zip(graph.nodes, stages):
        merged: List[TPTuple] = []
        node_stats: List[RevisionJoinStats] = []
        node_latencies: List[float] = []
        node_lags: List[float] = []
        for report in reports[stage.first_worker : stage.first_worker + stage.partitions]:
            merged.extend(report.outputs)
            node_stats.append(RevisionJoinStats(*report.stats))
            node_latencies.extend(report.emit_latencies)
            node_lags.extend(report.emit_event_lags)
        # Canonical order-stable merge: key-disjoint partition outputs sort
        # into the same sequence any partition count (or backend) produces.
        settled[spec.name] = canonical_order(merged)
        stats[spec.name] = RevisionJoinStats.merged(node_stats)
        latencies[spec.name] = node_latencies
        lags[spec.name] = node_lags
    return GraphRunOutcome(
        settled=settled,
        stats=stats,
        emit_latencies=latencies,
        emit_event_lags=lags,
        events_processed=events_processed,
        backpressure_blocks=blocks,
        backend=backend,
        metrics=[report.metrics for report in reports if report.metrics is not None],
    )
