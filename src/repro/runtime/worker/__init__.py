"""The one worker loop every execution backend runs.

A *worker* owns one operator instance (the one continuous join,
:class:`~repro.dataflow.RevisionJoin`) over one shard of the key space, and
drives it through the same four steps no matter which transport delivers
its input:

1. **route** — incoming watermarks are min-merged per channel
   (:class:`~repro.runtime.channel.ChannelWatermarks`: the stage output
   watermark is the min over upstream partitions), events and revisions pass
   through;
2. **operate** — the element is fed to the operator (``join.process``); an
   early-emitting operator publishes what it changed at the micro-batch
   end (:meth:`Worker.end_batch`);
3. **emit** — operator outputs are key-routed to downstream workers (one
   stable-hash partition per revision, watermarks broadcast); a worker with
   no downstream only counts them (the operator keeps its settled tuples);
4. **close-sentinel** — when every producer has signalled done, the operator
   is closed, remaining outputs flushed, and one done sentinel sent per
   downstream (edge × partition) channel.

A worker *spec* describes everything the loop needs — operator construction,
watermark channels, producer counts, downstream routing entries — as one
plain picklable dataclass (:class:`repro.dataflow.compile.DataflowNodeSpec`,
compiled from a dataflow graph; a stream query is a one-node graph), so the
identical loop runs in the caller's thread, in a thread pool, in a forked
process, or on a remote host behind the socket transport.

There is one loop, not an instrumented twin: a worker always counts what it
routes, operates on and emits, and :func:`run_worker` always times its
micro-batches.  Metrics and tracing decide only whether a registry samples
those numbers and whether spans are recorded, and whatever leaves a worker
before its report — snapshots, spans, checkpoints — goes through the one
``upstream(kind, payload)`` callable its transport supplies.

``python -m repro.runtime.worker --listen HOST:PORT`` starts a standalone
worker server that joins a placement map (see
:mod:`repro.runtime.sockets`) — the entry point of distributed execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Callable, Hashable, List, Optional, Protocol, Sequence

from ...obs.metrics import registry_for_spec
from ...obs.trace import span_detail, tracer_for_spec
from ...relation import TPTuple
from ...relation.predicates import StableKeyHashes
from ...stream.elements import LEFT, RIGHT, Tagged, Watermark
from ..channel import Channel, ChannelWatermarks

#: The channel id the driver uses for source-edge watermarks.
SOURCE_CHANNEL = "src"


class Emitter(Protocol):
    """Where a worker's outputs go; each transport provides one."""

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        """Deliver one element to worker ``target`` (``channel`` names the
        watermark channel; ``None`` for key-routed events/revisions)."""

    def done(self, target: int) -> None:
        """Signal worker ``target`` that one of its producers finished."""

    def flush(self) -> None:
        """Push out any buffered micro-batches (no-op for unbuffered emitters)."""


class WorkerSpec(Protocol):
    """What the loop needs to know about one worker (structural typing)."""

    index: int
    producers: int
    left_channels: Sequence[Hashable]
    right_channels: Sequence[Hashable]
    downstream: Sequence[tuple]
    tap: Optional[Callable]
    probe: Optional[Callable]

    def build_join(self): ...

    @property
    def channel_id(self) -> Hashable: ...

    @property
    def checkpointable(self) -> bool: ...

    def report(self, join) -> "WorkerReport": ...


@dataclass
class WorkerReport:
    """What one worker hands back to the driver after settling.

    ``outputs`` is the worker's contribution to the settled result (its
    operator's settled tuples);
    ``stats`` is the node's revision-counter tuple and ``late_dropped`` the
    events its maintainer dropped behind the watermark.
    """

    index: int
    outputs: List[TPTuple] = field(default_factory=list)
    emit_latencies: List[float] = field(default_factory=list)
    emit_event_lags: List[float] = field(default_factory=list)
    late_dropped: int = 0
    stats: Optional[tuple] = None
    #: Final metrics snapshot (``MetricsRegistry.snapshot()`` dict) when the
    #: job ran with metrics enabled; ``None`` otherwise.
    metrics: Optional[dict] = None
    #: The worker's final flight-recorder ring (span dicts) when the job ran
    #: with tracing enabled; ``None`` otherwise.
    spans: Optional[list] = None
    #: Estimated additive correction mapping this worker's perf-counter
    #: timestamps onto the driver's scale, from the ``(wall, perf)`` anchor a
    #: remote socket worker sends in the job handshake.  ``None`` for local
    #: workers, whose clocks are directly comparable.
    clock_offset: Optional[float] = None


def encode_report(report: WorkerReport) -> tuple:
    """Flatten a report for the process/socket boundary.

    The outputs travel as the tuple objects: pickle writes each lineage node
    the windows share once, and the receiving side's unpickling rebuilds
    them before :func:`decode_report` runs.
    """
    return (
        report.index,
        report.outputs,
        list(report.emit_latencies),
        list(report.emit_event_lags),
        report.late_dropped,
        report.stats,
        report.metrics,
        report.spans,
        report.clock_offset,
    )


def decode_report(code: tuple) -> WorkerReport:
    """Rebuild a report from its unpickled encoding."""
    index, outputs, latencies, lags, late, stats, metrics, spans, offset = code
    return WorkerReport(
        index=index,
        outputs=outputs,
        emit_latencies=latencies,
        emit_event_lags=lags,
        late_dropped=late,
        stats=stats,
        metrics=metrics,
        spans=spans,
        clock_offset=offset,
    )


class Worker:
    """Spec-driven operator state machine: route → operate → emit → close."""

    def __init__(
        self, spec: WorkerSpec, emitter: Emitter, metrics=None, tracer=None
    ) -> None:
        self.spec = spec
        self.emitter = emitter
        self.join = spec.build_join()
        #: Whether the operator defers publication to micro-batch ends (it
        #: emits early): the transport then calls :meth:`end_batch` at every
        #: boundary.  Nothing else pays for it.
        self.batched = self.join.early_emit
        #: Batched and traced: deferred revisions are dispatched under the
        #: trace context of the element that dirtied their group, parented on
        #: its operate span — kept here for the current batch, by the trace
        #: context the element arrived with.
        self._traced_batches = self.batched and tracer is not None
        self._operate_spans: dict = {}
        # Flow counts are always kept: three plain ints cost less than asking
        # per element whether anyone wants them.  ``metrics_snapshot`` copies
        # them into the registry when the job has one.
        self.routed = self.operated = self.emitted = 0
        #: Per-worker ``repro.obs.MetricsRegistry``, or ``None``: nothing is
        #: sampled and the report carries no snapshot.
        self.metrics = metrics
        #: Per-worker ``repro.obs.Tracer``, or ``None``.  Spans are recorded
        #: only for elements that arrive carrying a trace context.
        self.tracer = tracer
        self._active_trace = None
        #: The worker's input channel, when the transport exposes one
        #: (thread/socket inboxes); sampled into inbox_* gauges.
        self.inbox_channel = None
        # Optional in-process observation hooks (the serving layer's seam):
        # ``tap(channel_id, elements)`` sees every non-empty output list live,
        # ``probe(channel_id, join)`` sees the operator instance at start-up.
        # Both are callables and therefore only usable on in-process
        # transports.
        self._tap = spec.tap
        if spec.probe is not None:
            spec.probe(spec.channel_id, self.join)
        self._trackers = {
            LEFT: ChannelWatermarks(spec.left_channels),
            RIGHT: ChannelWatermarks(spec.right_channels),
        }
        self._key_hashes = StableKeyHashes()
        self._finished = False

    @classmethod
    def for_job(cls, spec: WorkerSpec, emitter: Emitter, job) -> "Worker":
        """A worker with the registry and tracer the job's flags ask for."""
        return cls(
            spec,
            emitter,
            metrics=registry_for_spec(spec) if job.metrics else None,
            tracer=tracer_for_spec(spec) if job.trace else None,
        )

    def accept(self, channel: Hashable, tagged: Tagged) -> None:
        """Process one delivered element (step 1 + 2 + 3).

        An element that arrives carrying a trace context (at a worker that
        has a tracer) also gets a ``queue_wait`` span (ingest stamp →
        pickup, when it was stamped at a routing point) and an ``operate``
        span, and its outputs are dispatched with the operate span as their
        parent so downstream spans stitch into one causal timeline.
        """
        self.routed += 1
        element = tagged.element
        if isinstance(element, Watermark):
            merged = self._trackers[tagged.side].update(channel, element.value)
            if merged is None:
                return
            tagged = Tagged(tagged.side, Watermark(merged), tagged.ingest_clock)
        self.operated += 1
        start = None
        if tagged.trace is not None and self.tracer is not None:
            start = perf_counter()
        outputs = self.join.process(tagged)
        if start is None:
            if self._traced_batches:
                self._dispatch_settled(outputs, None)
            else:
                self._dispatch(outputs)
            return
        end = perf_counter()
        trace_id, parent = tagged.trace
        if tagged.ingest_clock is not None:
            self.tracer.record(
                "queue_wait",
                trace_id,
                parent,
                tagged.ingest_clock,
                start,
                channel=str(channel) if channel is not None else "data",
            )
        operate = self.tracer.record(
            "operate", trace_id, parent, start, end, **span_detail(tagged.element)
        )
        context = (trace_id, operate)
        if self._traced_batches:
            self._operate_spans[tagged.trace] = operate
            self._dispatch_settled(outputs, context)
        else:
            self._dispatch_under(outputs, context)

    def end_batch(self) -> None:
        """Dispatch what a batched operator deferred to this boundary.

        Each run of revisions goes out under the trace context of the
        element that last dirtied its groups, parented on that element's
        operate span, so a stitched timeline still runs source to sink.
        """
        if not self._traced_batches:
            for _trace, revisions in self.join.end_batch():
                self._dispatch(revisions)
            return
        for trace, revisions in self.join.end_batch():
            self._dispatch_under(revisions, self._dirtied_by(trace))
        self._operate_spans.clear()

    def _dirtied_by(self, trace: Optional[tuple]) -> Optional[tuple]:
        """The dispatch context for revisions of groups an element carrying
        ``trace`` dirtied: that element's operate span, in its trace."""
        if trace is None:
            return None
        return (trace[0], self._operate_spans.get(trace, trace[1]))

    def _dispatch_settled(self, outputs, context: Optional[tuple]) -> None:
        """Dispatch ``outputs`` under ``context``, except the slices a
        settling dirty group published (batched, traced workers): those go
        under the context that dirtied the group."""
        settled = self.join.settle_traces
        done = 0
        for begin, stop, trace in settled:
            self._dispatch_under(outputs[done:begin], context)
            self._dispatch_under(outputs[begin:stop], self._dirtied_by(trace))
            done = stop
        self._dispatch_under(outputs[done:], context)
        settled.clear()

    def _dispatch_under(self, elements, context: Optional[tuple]) -> None:
        self._active_trace = context
        try:
            self._dispatch(elements)
        finally:
            self._active_trace = None

    def finish(self) -> WorkerReport:
        """Close the operator, flush, send done sentinels, build the report."""
        outputs = self.join.close()
        if self._traced_batches:
            self._dispatch_settled(outputs, None)
        else:
            self._dispatch(outputs)
        self._finished = True
        # One done sentinel per (edge × consumer partition), matching the
        # producer counts compiled into the specs (duplicate edges to one
        # consumer — a self-join shape — each carry their own sentinel).
        for first, consumer_parts, _side, _key_indices in self.spec.downstream:
            for offset in range(consumer_parts):
                self.emitter.done(first + offset)
        report = self.spec.report(self.join)
        report.metrics = self.metrics_snapshot()
        if self.tracer is not None:
            report.spans = self.tracer.dump()
        return report

    def metrics_snapshot(self) -> Optional[dict]:
        """Copy the flow counts and the operator + inbox state into the
        registry and snapshot it (``None`` without a registry)."""
        registry = self.metrics
        if registry is None:
            return None
        from ...obs.sample import sample_operator

        registry.set_counter("elements_routed", self.routed)
        registry.set_counter("elements_operated", self.operated)
        registry.set_counter("elements_emitted", self.emitted)
        sample_operator(registry, self.join)
        channel = self.inbox_channel
        if channel is not None:
            registry.gauge("inbox_depth").set(len(channel))
            registry.gauge("inbox_high_watermark").set(channel.high_watermark)
            registry.gauge("inbox_put_blocks").set(channel.put_blocks)
            registry.set_counter("inbox_total_put", channel.total_put)
            registry.set_counter("inbox_batches", channel.total_batches)
            registry.set_counter("inbox_batch_elements", channel.total_batch_elements)
        return registry.snapshot()

    @property
    def finished(self) -> bool:
        return self._finished

    def _dispatch(self, elements) -> None:
        """Step 3, the only routing loop: key-route to downstream workers.

        While a traced operate step is active each output also gets an
        ``emit`` span timestamping its departure; the span's id becomes the
        parent carried downstream, so the gap to the consumer's ``operate``
        span is the inter-worker queue/wire wait.  Sink workers (nothing
        downstream) still get the span — that is what closes a timeline
        source→sink — and untraced ones return at once.
        """
        self.emitted += len(elements)
        if self._tap is not None and elements:
            self._tap(self.spec.channel_id, elements)
        trace = self._active_trace
        if trace is None and not self.spec.downstream:
            return
        channel = self.spec.channel_id
        send = self.emitter.send
        key_hashes = self._key_hashes
        for element in elements:
            if isinstance(element, Watermark):
                for first, consumer_parts, side, _key_indices in self.spec.downstream:
                    for offset in range(consumer_parts):
                        send(first + offset, channel, Tagged(side, element))
                continue
            context = None
            if trace is not None:
                now = perf_counter()
                span = self.tracer.record(
                    "emit", *trace, now, now, **span_detail(element)
                )
                context = (trace[0], span)
            for first, consumer_parts, side, key_indices in self.spec.downstream:
                if consumer_parts > 1:
                    key = tuple(element.tuple.fact[i] for i in key_indices)
                    offset = key_hashes[key] % consumer_parts
                else:
                    offset = 0
                send(first + offset, None, Tagged(side, element, None, context))


class Inbox(Protocol):
    """A worker's input: batches of ``(channel, tagged)`` until producers end."""

    def take_batch(self, max_size: int) -> Optional[List[tuple]]: ...


def run_worker(
    spec: WorkerSpec, inbox: Inbox, emitter: Emitter, job, upstream=None, restore=None
) -> WorkerReport:
    """Drive one worker to settlement over a pull-based inbox.

    The loop every pull transport (threads, processes, sockets) runs: drain
    micro-batches until the inbox reports all producers done (``None``),
    ending the operator's batch (:meth:`Worker.end_batch`, batched workers
    only) and flushing buffered downstream sends after each one, then
    close.  It
    always times idle seconds (wall time blocked in ``take_batch``) and busy
    seconds (the worker thread's CPU time, :func:`time.thread_time`, from
    a batch's arrival to its flush, so time spent waiting for the GIL or
    another node's work is not counted), and counts the elements consumed:
    five clock reads per micro-batch, none per element.

    ``job`` is the :class:`~repro.runtime.transport.RuntimeJob` (its specs
    are not read): ``metrics`` gives the worker a registry, ``trace`` a
    tracer, and whatever leaves the worker before its report goes through
    the one callable ``upstream(kind, payload)`` the transport supplies:

    * ``"metrics"`` — a registry snapshot every ``metrics_interval`` seconds,
      and the final one (the dict the report carries) once settled;
    * ``"spans"`` — the spans recorded since the last shipment, on the same
      cadence;
    * ``"checkpoint"`` — every ``checkpoint_interval`` seconds (``0.0`` =
      every batch) the worker's full state (operator with its settled
      tuples, the count of elements consumed), snapshotted at a micro-batch
      boundary by :func:`repro.recovery.checkpoint.snapshot_worker`.

    ``restore`` seeds a replacement worker from such a checkpoint before any
    element is consumed; replay then skips the elements it covers.
    """
    worker = Worker.for_job(spec, emitter, job)
    registry, tracer = worker.metrics, worker.tracer
    if registry is not None:
        batch_sizes = registry.histogram("batch_size")
        batches = registry.counter("batches")
        idle_gauge = registry.gauge("idle_seconds")
        busy_gauge = registry.gauge("busy_seconds")
    # The thread transport's inbox *is* the channel; the socket inbox wraps
    # one and exposes it as ``.channel``; the process inbox has none.
    worker.inbox_channel = (
        inbox if isinstance(inbox, Channel) else getattr(inbox, "channel", None)
    )
    elements_seen = 0
    checkpoint_interval = job.checkpoint_interval if upstream is not None else None
    if restore is not None or checkpoint_interval is not None:
        from ...recovery.checkpoint import restore_worker, snapshot_worker

        if restore is not None:
            elements_seen = restore_worker(worker, restore)
    shipping = upstream is not None and (job.metrics or job.trace)
    end_batch = worker.end_batch if worker.batched else None
    idle = busy = 0.0
    last_shipment = last_checkpoint = perf_counter()
    while True:
        mark = perf_counter()
        batch = inbox.take_batch(job.micro_batch_size)
        idle += perf_counter() - mark
        if batch is None:
            break
        cpu = thread_time()
        for channel, tagged in batch:
            worker.accept(channel, tagged)
        if end_batch is not None:
            end_batch()
        elements_seen += len(batch)
        emitter.flush()
        busy += thread_time() - cpu
        done = perf_counter()
        if registry is not None:
            batch_sizes.observe(len(batch))
            batches.inc()
        if checkpoint_interval is not None and done - last_checkpoint >= checkpoint_interval:
            # Micro-batch boundaries are the only consistent points: the
            # operator holds no half-processed element here, so the
            # snapshot plus the post-``elements_seen`` input suffix is
            # exactly equivalent to the full input prefix.
            upstream("checkpoint", snapshot_worker(worker, elements_seen))
            last_checkpoint = done
        if shipping and done - last_shipment >= job.metrics_interval:
            if registry is not None:
                idle_gauge.set(idle)
                busy_gauge.set(busy)
                upstream("metrics", worker.metrics_snapshot())
            if tracer is not None:
                spans = tracer.pending()
                if spans:
                    upstream("spans", spans)
            last_shipment = done
    if registry is not None:
        idle_gauge.set(idle)
        busy_gauge.set(busy)
    report = worker.finish()
    emitter.flush()
    if shipping and registry is not None:
        upstream("metrics", report.metrics)
    return report


# --------------------------------------------------------------------------- #
# standalone worker entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.runtime.worker --listen HOST:PORT``.

    Starts a socket-transport worker server on this host.  A driver whose
    :class:`~repro.runtime.placement.Placement` names this address ships the
    worker its spec and the full address map per job; the server runs any
    number of jobs, sequentially or concurrently, until stopped.

    SIGTERM and SIGINT shut the server down gracefully: the listener stops
    accepting, in-flight jobs drain to completion (their result frames
    still reach the driver), and the process exits 0.  ``--idle-timeout``
    exits the same way after that many seconds without a connection or
    running job.
    """
    import argparse
    import logging
    import signal
    import threading

    from ...obs.logs import configure_logging
    from ..placement import parse_host_port
    from ..sockets import _JobRegistry, serve

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker",
        description="Socket-transport worker: joins a placement map and runs "
        "shipped worker specs until stopped (SIGTERM/SIGINT drain gracefully).",
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (use the same value in the driver's placement)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after the first job completes (used by spawned local workers)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit once no job or connection has been active for this long",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose Prometheus-format metrics of running jobs on this port",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="logging verbosity (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line instead of plain text",
    )
    arguments = parser.parse_args(argv)
    configure_logging(arguments.log_level, json_mode=arguments.log_json)
    logger = logging.getLogger(__name__)
    host, port = parse_host_port(arguments.listen)
    shutdown = threading.Event()
    received: List[int] = []
    registry = _JobRegistry()
    metrics_server = None
    if arguments.metrics_port is not None:
        from ...obs.httpd import start_metrics_http_server
        from ...obs.metrics import MetricsAggregator

        def render() -> str:
            aggregator = MetricsAggregator()
            aggregator.update_all(registry.metrics_snapshots())
            return aggregator.prometheus_text()

        metrics_server = start_metrics_http_server(host, arguments.metrics_port, render)

    def request_shutdown(signum, _frame) -> None:
        # Signal-handler safe: just record and set the event; the serve
        # loop wakes on it and drains.  (Printing
        # here could re-enter a stdout write interrupted by the signal.)
        received.append(signum)
        shutdown.set()

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, request_shutdown)
    serve(
        host,
        port,
        once=arguments.once,
        shutdown=shutdown,
        idle_timeout=arguments.idle_timeout,
        registry=registry,
    )
    if metrics_server is not None:
        metrics_server.shutdown()
        metrics_server.server_close()
    if received:
        logger.info(
            "repro runtime worker shut down cleanly "
            "(%s: jobs drained, sockets closed)",
            signal.Signals(received[0]).name,
        )
    return 0

