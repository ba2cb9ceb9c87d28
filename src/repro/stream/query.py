"""Continuous queries: registration, transport-parallel execution.

A :class:`StreamQuery` binds a continuous TP join to two *registered streams*
(:class:`StreamDef` entries held by the engine catalog) and executes it to
finalization.  Execution is hash-partitioned: with an equi-join θ, every
event is routed to a worker by the stable hash of its join key — all events
that can ever form a window together share a key, so partitions are
independent — and watermarks are broadcast to every worker.

The query is sugar for a one-node dataflow graph
(:class:`~repro.dataflow.NodeSpec`): :meth:`StreamQuery.run` compiles that
node and hands it to :func:`repro.dataflow.executor.run_graph`, the one
executor of every continuous run.  ``ExecutionOptions.transport`` decides
where the partition workers live (``"threads"`` / ``"processes"`` /
``"sockets"``, see :mod:`repro.runtime`); with ``partitions=1`` (or an empty
θ, which cannot be key-partitioned) the query runs on the inline transport
in the calling thread — the fast path for small streams and the engine's
SQL entry point.

The module avoids importing :mod:`repro.engine`; the catalog is used through
its ``lookup_stream`` method only, so the engine can depend on this package
without a cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from ..core.joins import join_output_schema
from ..lineage import EventSpace
from ..obs.collector import QueryTelemetry, RunIntrospection
from ..options import ExecutionOptions
from ..relation import Schema, TPRelation
from ..runtime.driver import default_transport
from .elements import StreamElement
from .operators import continuous_join


@dataclass(frozen=True)
class StreamStats:
    """Planner-visible statistics of one registered stream.

    A stream is unbounded in principle, so these are *expected* figures —
    replay sources derived from a finite relation know them exactly; live
    sources may estimate or omit them.  The shard/partition planners treat a
    missing value as "unknown, do not parallelise".
    """

    cardinality: int
    attribute_distinct_counts: dict

    def distinct(self, attribute: str) -> int:
        """Expected distinct-value count of one attribute (0 when unknown)."""
        return self.attribute_distinct_counts.get(attribute, 0)


@dataclass(frozen=True)
class StreamDef:
    """A registered stream: schema, event space and a replayable element source.

    ``replay`` returns a *fresh* iterator of stream elements each time it is
    called, so the same registered stream can serve several queries.
    ``stats`` optionally carries the expected cardinality / key selectivity
    the partition planner consults when choosing per-stage worker counts.
    """

    schema: Schema
    events: EventSpace
    replay: Callable[[], Iterable[StreamElement]]
    name: str = ""
    stats: Optional[StreamStats] = None


def summarize_latency_ms(samples: Sequence[float]) -> dict:
    """Mean / p50 / p95 / max of a latency sample list, in milliseconds.

    Shared by :class:`StreamQueryResult` and the dataflow layer's
    :class:`~repro.dataflow.NodeResult`, so both subsystems report
    identically computed percentiles.
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
class StreamQueryResult(RunIntrospection):
    """The finalized output of a continuous query run, with run statistics."""

    relation: TPRelation
    outputs_emitted: int
    emit_latencies: List[float] = field(default_factory=list)
    partitions: int = 1
    late_dropped: int = 0
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


class StreamQuery(QueryTelemetry):
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
            single-partition inline runs.  Options apply as they do to the
            one-node graph the query runs: with ``early_emit`` the node
            publishes revisions and settles to the same relation.
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
        self._catalog = catalog
        self._kind = kind
        self._left_name = left
        self._right_name = right
        self._on = tuple(on)
        self._config = config or ExecutionOptions()
        # Validate eagerly: unknown streams, kinds and bad θ fail at
        # registration.
        left_def = catalog.lookup_stream(left)
        right_def = catalog.lookup_stream(right)
        continuous_join(kind, left_def.schema, right_def.schema, self._on)
        super().__init__(self._config)

    @property
    def config(self) -> ExecutionOptions:
        return self._config

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        backend = ""
        if self.effective_partitions > 1 and self._config.transport != "threads":
            backend = f", workers={self._config.transport}"
        return (
            f"StreamQuery[{self._kind}] {self._left_name} × {self._right_name} "
            f"on {condition} (partitions={self.effective_partitions}{backend})"
        )

    @property
    def effective_partitions(self) -> int:
        """The partition count a run will actually use.

        The graph's rule: more than one partition needs an equi-join key to
        route by, so a query with an empty θ runs on one partition
        regardless of the configured count.
        """
        if not self._on:
            return 1
        return self._config.partitions

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self, merge_seed: Optional[int] = None, chaos: Optional[object] = None
    ) -> StreamQueryResult:
        """Execute the query over a fresh replay of both streams.

        ``chaos`` is the failure-injection seam of recovering socket runs
        (see :class:`repro.recovery.chaos.ChaosInjector`), used by the
        chaos tests to kill seats mid-run.  Ignored
        — no failure is injected — on every other execution path.
        """
        # Imported here: repro.dataflow builds on this package.
        from ..dataflow.executor import run_graph
        from ..dataflow.graph import DataflowGraph, NodeSpec

        partitions = self.effective_partitions
        name = f"{self._kind}({self._left_name},{self._right_name})"
        graph = DataflowGraph(
            self._catalog,
            [
                NodeSpec(
                    name,
                    self._kind,
                    self._left_name,
                    self._right_name,
                    self._on,
                    partitions,
                )
            ],
        )
        started = time.perf_counter()
        outcome = run_graph(
            graph,
            self._config,
            merge_seed,
            transport=default_transport(self._config.transport, partitions),
            collector=self._collector,
            trace_collector=self._trace_collector,
            chaos=chaos,
        )
        elapsed = time.perf_counter() - started

        left_def = self._catalog.lookup_stream(self._left_name)
        right_def = self._catalog.lookup_stream(self._right_name)
        outputs = outcome.settled[name]
        schema = join_output_schema(
            self._kind,
            left_def.schema,
            right_def.schema,
            right_def.name or self._right_name,
        )
        relation = TPRelation(
            schema,
            outputs,
            left_def.events.merge(right_def.events),
            name=self.describe(),
            check_constraint=False,
        )
        return StreamQueryResult(
            relation=relation,
            events_processed=outcome.events_processed,
            outputs_emitted=len(outputs),
            elapsed_seconds=elapsed,
            emit_latencies=outcome.emit_latencies[name],
            partitions=partitions,
            late_dropped=outcome.late_dropped,
            backpressure_blocks=outcome.backpressure_blocks,
            workers=outcome.backend,
            metrics_snapshots=outcome.metrics,
            trace_spans=self._run_spans(),
            recovery_events=outcome.recoveries,
        )
