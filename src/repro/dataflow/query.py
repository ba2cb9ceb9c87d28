"""DataflowQuery: the registered, executable form of a dataflow graph.

A dataflow query binds an operator *graph* to the catalog and executes it
to settlement on a chosen runtime transport — ``inline``, ``threads``,
``processes`` or ``sockets`` (:mod:`repro.runtime`), the out-of-process
ones degrading to threads with a warning when their workers cannot start.
It is the one continuous query class: :class:`repro.stream.StreamQuery` is
a subclass that builds a one-node graph and shapes its own result, and the
engine's stream joins plan to one.  It takes the unified
:class:`repro.ExecutionOptions` for its knobs: ``transport`` picks the
backend, ``micro_batch_size`` sizes the backpressure seam (every inbox,
and the revision stream's consumer channel, holds one micro-batch),
``early_emit`` switches provisional publication on and
``materialize_probabilities`` computes output probabilities inline through
the maintainer-owned computers, one per maintainer; each node's degree is its
``NodeSpec.partitions``.  A one-node graph with early emission off
recovers dead socket seats.  Any other graph is not yet recoverable —
nodes exchange revisions over peer edges whose in-flight elements a
per-seat snapshot cannot capture, and revision-publishing operators keep
state the checkpoint codec does not cover: under ``restart_limit>0`` a
socket run still runs, unrecovered, with a :class:`RuntimeWarning` saying
so.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs.collector import QueryTelemetry, RunIntrospection
from ..options import ExecutionOptions
from ..relation import TPRelation
from ..runtime import Channel, ChannelClosed
from ..runtime.driver import default_transport
from ..runtime.transport import TRANSPORTS
from ..stream.elements import Watermark
from .compile import output_watermarks
from .executor import GraphRunOutcome, run_graph
from .graph import DataflowGraph, NodeSpec
from .operators import RevisionJoinStats
from .revision import RevisionElement

#: In-process backends — the only ones whose workers can call back into the
#: driver's address space (taps), which live revision iteration requires.
IN_PROCESS = TRANSPORTS[:2]


class MultipleConsumerError(RuntimeError):
    """A second consumer attached to a single-consumer revision stream.

    A :meth:`DataflowQuery.iter_revisions` stream is owned by exactly one
    consumer: elements are *taken*, not copied, so a second iterator would
    silently steal revisions from the first and both would observe a
    corrupted (interleaved, gap-ridden) view of the output.  Multi-subscriber
    delivery is the serving layer's job — register the query as a standing
    query with :class:`repro.serve.StandingQueryService`, whose fan-out hub
    gives every subscriber its own cursor over one shared execution.
    """


def summarize_latency_ms(samples: Sequence[float]) -> dict:
    """Mean / p50 / p95 / max of a latency sample list, in milliseconds.

    Shared by :class:`NodeResult` and :class:`repro.stream.StreamQueryResult`,
    so both report identically computed percentiles.
    """
    if not samples:
        return {"mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "mean_ms": 1000.0 * sum(ordered) / count,
        "p50_ms": 1000.0 * ordered[count // 2],
        "p95_ms": 1000.0 * ordered[min(count - 1, (95 * count) // 100)],
        "max_ms": 1000.0 * ordered[-1],
    }


@dataclass
class NodeResult:
    """The settled output and revision statistics of one graph node."""

    name: str
    kind: str
    relation: TPRelation
    stats: RevisionJoinStats
    emit_latencies: List[float] = field(default_factory=list)
    emit_event_lags: List[float] = field(default_factory=list)

    def latency_summary(self) -> dict:
        """Wall-clock first-publication latency percentiles (ms)."""
        return summarize_latency_ms(self.emit_latencies)

    @property
    def retraction_rate(self) -> float:
        """Output retractions per addition (emits + refines)."""
        additions = self.stats.emits + self.stats.refines
        if not additions:
            return 0.0
        return self.stats.retracts / additions


@dataclass
class DataflowResult(RunIntrospection):
    """The settled outcome of one dataflow graph execution."""

    nodes: Dict[str, NodeResult]
    sink: str
    backend: str

    @property
    def relation(self) -> TPRelation:
        """The sink node's settled output relation."""
        return self.nodes[self.sink].relation

    def explain_analyze(self) -> str:
        """``EXPLAIN ANALYZE``-style per-node report of the finished run.

        Combines the settled revision statistics every run records with the
        metrics snapshots of an instrumented run (``config.metrics``) —
        watermark lag, loop busy/idle split, load skew — when present.
        """
        lines = [
            f"DataflowQuery run: backend={self.backend} "
            f"events={self.events_processed} "
            f"elapsed={self.elapsed_seconds:.3f}s "
            f"({self.events_per_second:.0f} ev/s) "
            f"late_dropped={self.late_dropped} "
            f"backpressure_blocks={self.backpressure_blocks}"
        ]
        for name, node in self.nodes.items():
            latency = node.latency_summary()
            lines.append(
                f"  {name} [{node.kind}]"
                f"{'  <- sink' if name == self.sink else ''}"
            )
            lines.append(
                "    revisions: emits={0.emits} retracts={0.retracts} "
                "refines={0.refines} settled={0.groups_settled} "
                "early={0.groups_published_early}".format(node.stats)
            )
            lines.append(
                f"    output: {len(node.relation)} tuples, "
                f"retraction_rate={node.retraction_rate:.3f}, "
                f"p50 latency {latency['p50_ms']:.2f}ms"
            )
        return "\n".join(lines + self._telemetry_lines())


class DataflowQuery(QueryTelemetry):
    """A continuous operator graph registered against catalogued streams.

    Args:
        catalog: any object with ``lookup_stream`` (the engine catalog).
        nodes: node specs in topological order (see :class:`NodeSpec`).
        config: execution knobs; ``config.transport`` picks the default
            backend (``"threads"`` maps to the node-per-thread pipeline) of
            graphs with more than one worker — a one-worker graph runs
            inline unless :meth:`run` names a backend.  Node degrees come
            from each ``NodeSpec.partitions``, not ``config.partitions``.
    """

    def __init__(
        self,
        catalog,
        nodes: Sequence[NodeSpec],
        config: ExecutionOptions | None = None,
    ) -> None:
        self._catalog = catalog
        self._graph = DataflowGraph(catalog, nodes)
        self._config = config or ExecutionOptions()
        self._consumer_lock = threading.Lock()
        self._live_consumer = False
        super().__init__(self._config)

    @property
    def graph(self) -> DataflowGraph:
        return self._graph

    @property
    def config(self) -> ExecutionOptions:
        return self._config

    @property
    def transport(self) -> str:
        """The transport :meth:`run` uses when the caller names no backend."""
        return default_transport(
            self._config.transport, sum(self._graph.partition_counts)
        )

    def describe(self) -> str:
        mode = "early-emit" if self._config.early_emit else "watermark-only"
        parts = "/".join(str(count) for count in self._graph.partition_counts)
        return (
            f"DataflowQuery[{len(self._graph.nodes)} nodes, sink={self._graph.sink}, "
            f"parts={parts}, {mode}, workers={self.transport}]"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        merge_seed: Optional[int] = None,
        backend: Optional[str] = None,
        chaos: Optional[object] = None,
    ) -> DataflowResult:
        """Execute the graph over fresh source replays until settlement.

        ``chaos`` is the failure-injection seam of recovering socket runs
        (see :class:`repro.recovery.chaos.ChaosInjector`), used by the
        chaos tests to kill seats mid-run; every other run ignores it.
        """
        chosen = backend or self.transport
        if chosen not in TRANSPORTS:
            raise ValueError(f"backend must be one of {TRANSPORTS}, got {chosen!r}")
        started = time.perf_counter()
        outcome = run_graph(
            self._graph,
            self._config,
            merge_seed,
            transport=chosen,
            collector=self._collector,
            trace_collector=self._trace_collector,
            chaos=chaos,
        )
        elapsed = time.perf_counter() - started
        return self._build_result(outcome, elapsed)

    def iter_revisions(
        self, merge_seed: Optional[int] = None, backend: Optional[str] = None
    ) -> Iterator[RevisionElement]:
        """Live, single-consumer iteration over the sink's revision stream.

        Runs the graph on an in-process transport in a background thread and
        yields the sink node's output elements —
        :class:`~repro.dataflow.Revision` and
        :class:`~repro.stream.elements.Watermark` — as they are produced.
        Per-partition sink watermarks are min-merged before they are
        yielded, so the watermark sequence carries the stage's true output
        frontier.  Abandoning the iterator (``close()`` or garbage
        collection) cancels the run cooperatively: routing stops and the
        graph settles over what was already ingested.

        The stream is **single-consumer**: elements are taken, not copied.
        A second call while an iteration is live raises
        :class:`MultipleConsumerError` — fan-out to many subscribers is the
        serving layer's job (:class:`repro.serve.StandingQueryService`).
        """
        chosen = backend or self._config.transport
        if backend is not None and backend not in IN_PROCESS:
            raise ValueError(
                f"iter_revisions taps the sink in-process; backend must be "
                f"one of {IN_PROCESS}, got {backend!r}"
            )
        if chosen not in IN_PROCESS:
            chosen = "threads"
        with self._consumer_lock:
            if self._live_consumer:
                raise MultipleConsumerError(
                    f"{self.describe()} already has a live revision consumer; "
                    "a dataflow revision stream is single-consumer (a second "
                    "iterator would silently steal elements from the first). "
                    "Register the query as a standing query with "
                    "repro.serve.StandingQueryService to fan one execution "
                    "out to many subscribers."
                )
            self._live_consumer = True

        sink = self._graph.sink
        channel: Channel = Channel(self._config.micro_batch_size, producers=1)
        cancel = threading.Event()
        failures: List[BaseException] = []

        def tap(channel_id, elements) -> None:
            try:
                channel.put_all([(channel_id, element) for element in elements])
            except ChannelClosed:
                # The consumer abandoned the iterator; stop the run instead
                # of failing the worker.
                cancel.set()

        def drive() -> None:
            try:
                run_graph(
                    self._graph,
                    self._config,
                    merge_seed,
                    transport=chosen,
                    taps={sink: tap},
                    cancel=cancel,
                    collector=self._collector,
                    trace_collector=self._trace_collector,
                )
            except BaseException as error:  # noqa: BLE001 - re-raised to consumer
                failures.append(error)
            finally:
                channel.producer_done()

        thread = threading.Thread(
            target=drive, name=f"dataflow-revisions-{sink}", daemon=True
        )

        def iterate() -> Iterator[RevisionElement]:
            tracker = output_watermarks(self._graph, sink)
            thread.start()
            try:
                while True:
                    batch = channel.take_batch(self._config.micro_batch_size)
                    if batch is None:
                        break
                    for channel_id, element in batch:
                        if isinstance(element, Watermark):
                            merged = tracker.update(channel_id, element.value)
                            if merged is not None:
                                yield Watermark(merged)
                        else:
                            yield element
                if failures:
                    raise failures[0]
            finally:
                cancel.set()
                channel.close()
                thread.join()
                with self._consumer_lock:
                    self._live_consumer = False

        return iterate()

    def _build_result(self, outcome: GraphRunOutcome, elapsed: float) -> DataflowResult:
        events = self._graph.merged_events()
        nodes: Dict[str, NodeResult] = {}
        for spec in self._graph.nodes:
            # Every settled fact joins facts of validated inputs: none is
            # re-checked.
            relation = TPRelation._trusted(
                self._graph.schema_of(spec.name), outcome.settled[spec.name], events, spec.name
            )
            nodes[spec.name] = NodeResult(
                name=spec.name,
                kind=spec.kind,
                relation=relation,
                stats=outcome.stats[spec.name],
                emit_latencies=outcome.emit_latencies[spec.name],
                emit_event_lags=outcome.emit_event_lags[spec.name],
            )
        return DataflowResult(
            nodes=nodes,
            sink=self._graph.sink,
            backend=outcome.backend,
            **self._introspection(outcome, elapsed),
        )

    def _introspection(self, outcome: GraphRunOutcome, elapsed: float) -> dict:
        """The :class:`RunIntrospection` fields of a finished run."""
        return {
            "events_processed": outcome.events_processed,
            "elapsed_seconds": elapsed,
            "backpressure_blocks": outcome.backpressure_blocks,
            "late_dropped": outcome.late_dropped,
            "metrics_snapshots": outcome.metrics,
            "trace_spans": self._run_spans(),
            "recovery_events": outcome.recoveries,
        }
