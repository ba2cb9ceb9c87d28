"""Distributed tracing: span-per-element timelines across every transport.

The tracing layer is the per-event counterpart to PR 7's aggregate
metrics.  A :class:`TraceSampler` at the *source* (the driver's routing
loop) decides — deterministically, via an error-accumulator rather than
a RNG — which elements carry a compact trace context ``(trace_id,
parent_span_id)`` on :attr:`repro.stream.elements.Tagged.trace`.  The
context travels with the element through worker dispatch, channel hops
and the process/socket codecs; every traced worker owns a
:class:`Tracer` writing spans into a bounded
:class:`~repro.obs.recorder.FlightRecorder` ring.  Spans ship exactly
like metrics snapshots: periodically on the live frames mid-run, and in
full with the final :class:`~repro.runtime.worker.WorkerReport`.

Driver-side, a :class:`TraceAggregator` stitches spans (deduplicated by
span id, so the periodic and final shipments may overlap freely) into
causal per-trace timelines, renders them as text, and exports Chrome
trace-event JSON loadable in ``chrome://tracing`` / Perfetto.  A
:class:`TraceCollector` mirrors :class:`~repro.obs.collector.MetricsCollector`
for live mid-run reads.

Cross-host clocks: span timestamps are ``time.perf_counter()`` values,
incomparable across real hosts.  Remote socket workers therefore send a
``(wall_clock, perf_counter)`` anchor pair when they accept a job;
:func:`estimate_clock_offset` turns it into an additive correction that
maps the remote perf-counter scale onto the driver's (trusting NTP for
the wall clocks), applied by the socket session before spans reach the
aggregator and surfaced as ``WorkerReport.clock_offset``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from .recorder import DEFAULT_RING_SPANS, FlightRecorder

__all__ = [
    "DEFAULT_TRACE_SAMPLE_RATE",
    "TraceAggregator",
    "TraceCollector",
    "TraceSampler",
    "Tracer",
    "clock_anchor",
    "estimate_clock_offset",
    "find_tuples",
    "render_tuple_explanation",
    "shift_spans",
    "span_detail",
    "tracer_for_spec",
]

#: Default per-query sampling rate: one traced element per hundred.
#: Cheap enough to leave on in production; tests and walkthroughs that
#: want every element pass ``trace_sample_rate=1.0``.
DEFAULT_TRACE_SAMPLE_RATE = 0.01

#: Lineage variables recorded per span — enough to join a span timeline
#: against a settled tuple's lineage tree without bloating the ring.
_MAX_SPAN_VARS = 8


class TraceSampler:
    """Deterministic head-based sampler handing out sequential trace ids.

    An error accumulator (``acc += rate``; sample when it crosses 1)
    picks every ``1/rate``-th element — reproducible run to run, which
    keeps traced output bitwise comparable and the overhead bench fair.
    """

    __slots__ = ("rate", "_acc", "_next_id")

    def __init__(self, rate: float, first_id: int = 1) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._acc = 0.0
        self._next_id = first_id

    def sample(self) -> Optional[int]:
        """The next trace id if this element is sampled, else ``None``."""
        self._acc += self.rate
        if self._acc >= 1.0:
            self._acc -= 1.0
            trace_id = self._next_id
            self._next_id += 1
            return trace_id
        return None


class Tracer:
    """Records spans for one worker into its flight-recorder ring.

    Span ids are ``"<worker>:<seq>"`` — unique across a run because
    worker labels are (driver label, worker indices, hub names are all
    distinct) and sequences are per-tracer monotone.  Spans are plain
    dicts with ``name``/``trace``/``span``/``worker``/``t0``/``t1``
    plus optional ``parent``/``node`` and free-form detail keys.
    """

    __slots__ = ("worker", "node", "recorder", "_seq")

    def __init__(
        self,
        worker: str,
        node: Optional[str] = None,
        capacity: int = DEFAULT_RING_SPANS,
    ) -> None:
        self.worker = str(worker)
        self.node = node
        self.recorder = FlightRecorder(capacity)
        self._seq = 0

    def record(
        self,
        name: str,
        trace_id: int,
        parent: Optional[str],
        start: float,
        end: float,
        **detail,
    ) -> str:
        span_id = f"{self.worker}:{self._seq}"
        self._seq += 1
        span = {
            "name": name,
            "trace": trace_id,
            "span": span_id,
            "worker": self.worker,
            "t0": start,
            "t1": end,
        }
        if parent is not None:
            span["parent"] = parent
        if self.node is not None:
            span["node"] = self.node
        if detail:
            span.update(detail)
        self.recorder.record(span)
        return span_id

    def pending(self) -> List[dict]:
        return self.recorder.pending()

    def dump(self) -> List[dict]:
        return self.recorder.dump()


def tracer_for_spec(spec) -> Tracer:
    """A tracer labelled like :func:`~repro.obs.metrics.registry_for_spec`,
    so spans and metrics snapshots from the same worker share a label."""
    return Tracer(str(getattr(spec, "index", 0)), node=getattr(spec, "name", None))


def span_detail(element) -> dict:
    """Fact + lineage variables of a stream element, for span annotation.

    Duck-typed over :class:`~repro.stream.elements.StreamEvent`,
    dataflow revisions and bare TP tuples (all expose the tuple via
    ``.tuple`` or *are* one).  The recorded variables are what
    ``explain_tuple`` later intersects with a settled tuple's lineage.
    """
    tp_tuple = getattr(element, "tuple", element)
    detail: dict = {}
    fact = getattr(tp_tuple, "fact", None)
    if fact is not None:
        detail["fact"] = tuple(fact)
    lineage = getattr(tp_tuple, "lineage", None)
    if lineage is not None:
        names = sorted(lineage.variables())
        if names:
            detail["vars"] = tuple(names[:_MAX_SPAN_VARS])
    return detail


def clock_anchor() -> tuple:
    """A ``(wall_clock, perf_counter)`` pair read back to back."""
    return (time.time(), time.perf_counter())


def estimate_clock_offset(
    remote_anchor: Sequence[float], local_anchor: Optional[Sequence[float]] = None
) -> float:
    """Additive correction mapping remote perf-counter times onto ours.

    ``driver_perf ≈ remote_perf + offset``, assuming the wall clocks
    agree (NTP).  On the same host the estimate is the (tiny) skew
    between the two back-to-back clock reads.
    """
    wall_remote, perf_remote = remote_anchor
    wall_local, perf_local = local_anchor if local_anchor is not None else clock_anchor()
    return (wall_remote - perf_remote) - (wall_local - perf_local)


def shift_spans(spans: Iterable[dict], offset: float) -> List[dict]:
    """Copies of ``spans`` with ``t0``/``t1`` shifted by ``offset``."""
    if not offset:
        return list(spans)
    shifted = []
    for span in spans:
        span = dict(span)
        span["t0"] = span.get("t0", 0.0) + offset
        span["t1"] = span.get("t1", 0.0) + offset
        shifted.append(span)
    return shifted


class TraceAggregator:
    """Stitches span shipments into causal per-trace timelines.

    Spans are keyed by span id, so periodic frames and the final report
    rings may overlap arbitrarily — the last shipment wins.
    """

    def __init__(self) -> None:
        self._spans: Dict[str, dict] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def add_spans(self, spans: Iterable[dict], clock_offset: float = 0.0) -> None:
        for span in spans or ():
            ident = span.get("span")
            if ident is None:
                continue
            if clock_offset:
                span = dict(span)
                span["t0"] = span.get("t0", 0.0) + clock_offset
                span["t1"] = span.get("t1", 0.0) + clock_offset
            self._spans[ident] = span

    def update_all(self, span_lists: Iterable[Iterable[dict]]) -> None:
        for spans in span_lists:
            self.add_spans(spans)

    def spans(self) -> List[dict]:
        """All spans, ordered by start time (ties broken by span id)."""
        return sorted(
            self._spans.values(), key=lambda span: (span.get("t0", 0.0), span["span"])
        )

    def timeline(self, trace_id: int) -> List[dict]:
        return [span for span in self.spans() if span.get("trace") == trace_id]

    def timelines(self) -> Dict[int, List[dict]]:
        grouped: Dict[int, List[dict]] = {}
        for span in self.spans():
            grouped.setdefault(span["trace"], []).append(span)
        return grouped

    def render_timeline(self, trace_id: int) -> str:
        spans = self.timeline(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans recorded"
        origin = spans[0].get("t0", 0.0)
        lines = [f"trace {trace_id}: {len(spans)} span(s)"]
        for span in spans:
            start = (span.get("t0", origin) - origin) * 1e6
            duration = (span.get("t1", origin) - span.get("t0", origin)) * 1e6
            line = (
                f"  +{start:10.1f}us {duration:9.1f}us"
                f"  worker={span.get('worker', '?'):<10} {span['name']}"
            )
            for key in ("node", "channel", "target", "fact", "seq"):
                if key in span:
                    line += f" {key}={span[key]}"
            lines.append(line)
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """The span set as a Chrome trace-event JSON object.

        One ``pid`` for the run, one ``tid`` per worker label (named via
        ``thread_name`` metadata events), complete ``ph: "X"`` events
        with microsecond ``ts``/``dur`` relative to the earliest span.
        Load the written file in ``chrome://tracing`` or Perfetto.
        """
        spans = self.spans()
        origin = min((span.get("t0", 0.0) for span in spans), default=0.0)
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "repro"}}
        ]
        thread_ids: Dict[str, int] = {}
        for span in spans:
            worker = span.get("worker", "?")
            tid = thread_ids.get(worker)
            if tid is None:
                tid = thread_ids[worker] = len(thread_ids) + 1
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": f"worker {worker}"},
                    }
                )
            args = {
                key: value
                for key, value in span.items()
                if key not in ("name", "worker", "t0", "t1")
            }
            events.append(
                {
                    "name": span["name"],
                    "cat": span.get("node", "span"),
                    "ph": "X",
                    "ts": (span.get("t0", 0.0) - origin) * 1e6,
                    "dur": max(
                        (span.get("t1", 0.0) - span.get("t0", 0.0)) * 1e6, 0.001
                    ),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def find_tuples(tuples, key) -> list:
    """The settled tuples a user-facing key designates.

    A tuple key is an exact fact match; a scalar matches any tuple whose
    fact contains it — so ``result.explain_tuple("alice")`` works without
    knowing the full fact.
    """
    if isinstance(key, tuple):
        return [tp_tuple for tp_tuple in tuples if tuple(tp_tuple.fact) == key]
    return [tp_tuple for tp_tuple in tuples if key in tuple(tp_tuple.fact)]


def render_tuple_explanation(tp_tuple, aggregator: Optional[TraceAggregator]) -> str:
    """The per-tuple provenance report behind ``result.explain_tuple``.

    Joins the tuple's lineage tree against the recorded span timelines: a
    trace contributed when any of its spans annotated this exact fact, or
    recorded a lineage variable the tuple's own lineage mentions (spans
    cap recorded variables, so the join is by intersection, not equality).
    """
    fact = tuple(tp_tuple.fact)
    lineage = tp_tuple.lineage
    variables = set(lineage.variables())
    lines = [
        f"tuple {fact}",
        f"  interval: [{tp_tuple.start}, {tp_tuple.end})",
        f"  probability: {tp_tuple.probability}",
        f"  lineage: {lineage}",
    ]
    if variables:
        lines.append(f"  events: {', '.join(sorted(variables))}")
    if aggregator is None or not len(aggregator):
        lines.append("  traces: none recorded (tracing off or nothing sampled)")
        return "\n".join(lines)
    contributing = []
    for trace_id, spans in sorted(aggregator.timelines().items()):
        for span in spans:
            if tuple(span.get("fact", ())) == fact or variables.intersection(
                span.get("vars", ())
            ):
                contributing.append(trace_id)
                break
    if not contributing:
        lines.append("  traces: no sampled element contributed to this tuple")
        return "\n".join(lines)
    lines.append(f"  traces: {len(contributing)} contributing timeline(s)")
    for trace_id in contributing:
        lines.extend(
            "  " + line for line in aggregator.render_timeline(trace_id).splitlines()
        )
    return "\n".join(lines)


class TraceCollector:
    """Live span access for a run in progress, mirroring MetricsCollector.

    Attach it to a query/run; mid-run reads poll the transport session's
    accumulated span shipments, and :meth:`complete` folds in the final
    report rings.  All reads go through one internal aggregator, so the
    overlap between periodic and final shipments is invisible.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._aggregator = TraceAggregator()
        self._session = None

    def attach(self, session) -> None:
        """Point live reads at a running session — the start of a run.

        Span ids are only unique within one run, so a re-run starts from
        an empty aggregator rather than deduplicating against the last.
        """
        with self._lock:
            self._aggregator = TraceAggregator()
            self._session = session

    def add_spans(self, spans: Iterable[dict]) -> None:
        with self._lock:
            self._aggregator.add_spans(spans)

    def complete(self, span_lists: Iterable[Iterable[dict]]) -> None:
        with self._lock:
            self._poll_locked()
            self._session = None
            for spans in span_lists:
                self._aggregator.add_spans(spans)

    def _poll_locked(self) -> None:
        if self._session is None:
            return
        try:
            spans = self._session.trace_spans()
        except Exception:  # session mid-teardown: the final report follows
            return
        self._aggregator.add_spans(spans)

    def spans(self) -> List[dict]:
        with self._lock:
            self._poll_locked()
            return self._aggregator.spans()

    def aggregate(self) -> Optional[TraceAggregator]:
        """The aggregator once any span arrived, else ``None``."""
        with self._lock:
            self._poll_locked()
            return self._aggregator if len(self._aggregator) else None
