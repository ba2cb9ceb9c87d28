"""Dataflow graph execution over the unified runtime layer.

:func:`run_graph` compiles the graph (:mod:`repro.dataflow.compile`) into
worker specs — one per *(node, partition)* — plus the source edges and
per-node routing stages, hands them to the one router
(:func:`repro.runtime.driver.run_job`), and gathers the worker reports per
node.  The transport decides where the workers live:

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
  of the node's equi-join key (:func:`repro.relation.stable_key_hash`, so
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
from typing import Dict, List, Optional

from ..recovery.types import RecoveryEvent
from ..relation import TPTuple
from ..runtime.driver import merge_edges, run_job
from ..runtime.transport import TRANSPORTS
from ..stream.source import SourceStats
from .compile import compile_graph, source_edges
from .graph import DataflowGraph
from .operators import RevisionJoinStats

__all__ = ["GraphRunOutcome", "merge_edges", "run_graph", "source_edges"]


@dataclass
class GraphRunOutcome:
    """Per-node results of one graph execution, backend-independent.

    Partitioned stages are already merged: ``settled`` holds each node's
    partition outputs concatenated in partition order, ``stats`` the summed
    partition counters.
    """

    settled: Dict[str, List[TPTuple]]
    stats: Dict[str, RevisionJoinStats]
    emit_latencies: Dict[str, List[float]]
    emit_event_lags: Dict[str, List[float]]
    events_processed: int = 0
    backpressure_blocks: int = 0
    backend: str = "inline"
    #: Events dropped late: evicted by a source at ingestion, or behind the
    #: watermark at a node.
    late_dropped: int = 0
    #: Final metrics snapshots, one per worker plus the recovering
    #: session's own after a recovery (empty unless ``config.metrics``).
    metrics: List[dict] = field(default_factory=list)
    #: Seats re-executed by a recovering socket run.
    recoveries: List[RecoveryEvent] = field(default_factory=list)


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
    chaos: Optional[object] = None,
) -> GraphRunOutcome:
    """Execute a dataflow graph on one runtime transport.

    Compiles the graph into one worker spec per *(node, partition)* and one
    routing stage per node, lets the router
    (:func:`repro.runtime.driver.run_job`) drive the merged source edges
    through them, and gathers the workers' reports into a backend-independent
    :class:`GraphRunOutcome` (partition outputs in partition order, summed
    stats).  ``config`` is the run's :class:`repro.ExecutionOptions`.

    ``taps`` / ``probes`` map node names to observation callables — the
    serving layer's seam: a tap sees every output list of the node's
    partitions live (``tap(channel_id, elements)``, one call per non-empty
    dispatched list), a probe sees each operator instance at worker
    start-up (``probe(channel_id, join)``).
    Callables cannot cross a process/socket boundary, so both require an
    in-process transport (``inline`` / ``threads``).

    ``collector`` / ``trace_collector`` (:class:`repro.obs.MetricsCollector`
    / :class:`repro.obs.TraceCollector`), ``cancel`` and ``chaos`` are the
    router's: unlike taps/probes, metrics snapshots and span shipments cross
    the transport boundary inside the existing frame protocol, so they work
    identically on all four transports; once ``cancel`` is set the graph
    settles early over what was already ingested — the cooperative stop
    used by standing-query lifecycle management.

    When the process or socket workers cannot start, the run degrades to
    the thread transport over the same untouched replays;
    ``GraphRunOutcome.backend`` records what actually ran.
    """
    if (taps or probes) and transport not in TRANSPORTS[:2]:
        raise ValueError(
            f"taps/probes are in-process callables and cannot cross the "
            f"{transport!r} transport's serialization boundary; use the "
            "'inline' or 'threads' transport for live element observation, "
            "or — for instrumentation that *does* cross every transport "
            "boundary, including remote socket workers — enable the metrics "
            "subsystem instead: set metrics=True on the query config and "
            "read DataflowQuery.metrics() / StreamQuery.metrics() live or "
            "the outcome's metrics snapshots after the run"
        )
    for label, hooks in (("taps", taps), ("probes", probes)):
        unknown = sorted(set(hooks or ()) - set(graph.node_names))
        if unknown:
            raise ValueError(f"{label} name unknown graph nodes: {unknown}")
    node_index = {name: index for index, name in enumerate(graph.node_names)}
    specs, stages = compile_graph(graph, config, taps=taps, probes=probes)
    edges = source_edges(graph, node_index)
    reports, events_processed, blocks, backend, recoveries, snapshots = run_job(
        specs,
        edges,
        stages,
        config,
        transport,
        merge_seed,
        collector=collector,
        trace_collector=trace_collector,
        cancel=cancel,
        chaos=chaos,
    )
    # Sources evict events beyond their lateness bound at ingestion (a
    # replay that keeps counters, e.g. StreamSource, says how many).
    late = sum(report.late_dropped for report in reports)
    for _target, _side, replay in edges:
        stats = getattr(replay, "stats", None)
        if isinstance(stats, SourceStats):
            late += stats.late_evicted
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
        settled[spec.name] = merged
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
        late_dropped=late,
        metrics=snapshots,
        recoveries=recoveries,
    )
