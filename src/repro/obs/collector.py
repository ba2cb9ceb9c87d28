"""Driver-side collection of worker metrics snapshots, live and final.

A :class:`MetricsCollector` is handed down into the graph/shard runner;
the runner *attaches* the live transport session (whose ``metrics()``
polls the workers' most recent snapshots mid-run) and later *completes*
with the final snapshots carried home in each :class:`WorkerReport`.
``snapshots()`` therefore answers at any point of the run's lifecycle:
live while a session is attached, final afterwards, empty before either.

The two halves of query introspection live here too, shared by the stream
and dataflow layers: :class:`QueryTelemetry` owns the collectors of a
*query* (live ``metrics()`` / ``trace()``), :class:`RunIntrospection` is
the telemetry a finished run's *result* carries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

from ..recovery.types import RecoveryEvent
from .metrics import MetricsAggregator
from .trace import (
    TraceAggregator,
    TraceCollector,
    find_tuples,
    render_tuple_explanation,
)

__all__ = ["MetricsCollector", "QueryTelemetry", "RunIntrospection"]


class MetricsCollector:
    """Thread-safe bridge between a running session and metrics readers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._session = None
        self._final: List[dict] = []

    def attach(self, session) -> None:
        """Point live reads at a running transport session."""
        with self._lock:
            self._session = session

    def complete(self, snapshots: List[dict]) -> None:
        """Store the final per-worker snapshots; detach the session."""
        with self._lock:
            self._final = [snap for snap in snapshots if snap]
            self._session = None

    def snapshots(self) -> List[dict]:
        """Most recent per-worker snapshots (live when a run is active)."""
        with self._lock:
            session = self._session
            final = list(self._final)
        if session is not None:
            try:
                live = session.metrics()
            except Exception:
                live = []
            if live:
                return [snap for snap in live if snap]
        return final

    def aggregate(self) -> Optional[MetricsAggregator]:
        """Aggregated view over the current snapshots, or ``None`` if empty."""
        snapshots = self.snapshots()
        if not snapshots:
            return None
        aggregator = MetricsAggregator()
        aggregator.update_all(snapshots)
        return aggregator


class QueryTelemetry:
    """The collectors a query owns, created from its options.

    Base of :class:`repro.dataflow.DataflowQuery` (and so of its one-node
    subclass :class:`repro.stream.StreamQuery`): it hands the collectors to
    the router and answers ``metrics()`` / ``trace()`` from them, live
    during a run and final after it.
    """

    def __init__(self, options) -> None:
        self._collector = MetricsCollector() if options.metrics else None
        self._trace_collector = TraceCollector() if options.trace else None

    def metrics(self) -> Optional[MetricsAggregator]:
        """Aggregated worker metrics: live during ``run``, final after.

        ``None`` when the options have ``metrics=False`` or nothing has
        been collected yet.
        """
        if self._collector is None:
            return None
        return self._collector.aggregate()

    def trace(self) -> Optional[TraceAggregator]:
        """Aggregated span timelines: live during ``run``, final after.

        ``None`` when the options have ``trace=False`` or no span has been
        recorded yet.
        """
        if self._trace_collector is None:
            return None
        return self._trace_collector.aggregate()

    def _run_spans(self) -> List[dict]:
        """Every span of the run just completed (empty when not traced)."""
        if self._trace_collector is None:
            return []
        return self._trace_collector.spans()


@dataclass(kw_only=True)
class RunIntrospection:
    """What every finished continuous run can be asked about itself.

    Base of :class:`repro.stream.StreamQueryResult` and
    :class:`repro.dataflow.DataflowResult`; subclasses provide
    ``relation`` (the settled output ``explain_tuple`` searches).
    """

    events_processed: int
    elapsed_seconds: float
    backpressure_blocks: int = 0
    #: Events dropped late: evicted by a source at ingestion, or behind the
    #: watermark at a node.
    late_dropped: int = 0
    #: Final per-worker metrics snapshots (empty unless ``options.metrics``).
    metrics_snapshots: List[dict] = field(default_factory=list)
    #: Every span the run recorded (empty unless ``options.trace``).
    trace_spans: List[dict] = field(default_factory=list)
    #: Seat recoveries the run performed: empty on an unfailed run, and
    #: always empty unless ``options.restart_limit`` enabled recovery on a
    #: run of self-contained socket shards (a one-node, early-off graph).
    recovery_events: List[RecoveryEvent] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        """Ingest throughput of the run."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.events_processed / self.elapsed_seconds

    def metrics(self) -> Optional[MetricsAggregator]:
        """The run's final worker metrics (``None`` when the run was not
        instrumented)."""
        if not self.metrics_snapshots:
            return None
        aggregator = MetricsAggregator()
        aggregator.update_all(self.metrics_snapshots)
        return aggregator

    def trace(self) -> Optional[TraceAggregator]:
        """The run's spans (``None`` when the run was not traced, or
        nothing was sampled)."""
        if not self.trace_spans:
            return None
        aggregator = TraceAggregator()
        aggregator.add_spans(self.trace_spans)
        return aggregator

    def recoveries(self) -> List[RecoveryEvent]:
        """Seat recoveries the run performed: who died, which checkpoint
        the replacement restored, how many elements were replayed."""
        return list(self.recovery_events)

    def explain_tuple(self, key) -> str:
        """Provenance of one settled tuple: lineage joined with its trace.

        ``key`` is either a full fact tuple (exact match) or a scalar that
        any fact attribute may equal.  The report shows the tuple's
        interval, probability and lineage tree, then every sampled span
        timeline that contributed to it — the per-event evidence chain
        from source ingestion through operate/emit to the sink.
        """
        matches = find_tuples(self.relation, key)
        if not matches:
            return f"no settled tuple matches {key!r}"
        aggregator = self.trace()
        return "\n\n".join(
            render_tuple_explanation(tp_tuple, aggregator) for tp_tuple in matches
        )

    def _telemetry_lines(self) -> List[str]:
        """The ``explain_analyze`` tail both result kinds share: one line
        per survived seat failure, then the worker metrics report."""
        lines: List[str] = []
        if self.recovery_events:
            lines.append(f"recoveries: {len(self.recovery_events)}")
            lines.extend(f"  {event.describe()}" for event in self.recovery_events)
        aggregated = self.metrics()
        if aggregated is not None:
            lines.append("worker metrics:")
            lines.extend(
                "  " + line for line in aggregated.render_report().splitlines()
            )
        return lines
