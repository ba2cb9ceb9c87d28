"""The one source router: every continuous run drives the runtime through it.

A continuous run — the *(node, partition)* workers a
:class:`~repro.dataflow.DataflowGraph` compiles to, a
:class:`~repro.stream.StreamQuery` being a one-node graph, a recovering
socket run — is a set of worker specs plus the source edges that feed them.
:func:`run_job` is the only place that

* builds the :class:`~repro.runtime.RuntimeJob` from
  :class:`repro.ExecutionOptions`,
* starts the transport session (degrading to threads, once, when workers
  cannot start — strictly before any source element is consumed),
* runs the routing loop: stamp the ingest clock, sample and record the root
  ``source`` span, key-route events by the stable hash of the stage's θ key,
  broadcast watermarks, send the done sentinels, ``finish`` —
* and completes the metrics/trace collectors.

Callers differ only in what they compile (specs, edges, stages) and in how
they merge the ordered worker reports.  :func:`default_transport` is the
one rule for the transport of a run whose caller names none, and
:func:`recovery_decision` the one rule for whether a run recovers dead
seats (EXPLAIN renders its marker from the same call).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace
from time import perf_counter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..recovery.types import RecoveryEvent
from ..relation import ThetaCondition
from ..relation.predicates import StableKeyHashes
from ..stream.elements import LEFT, StreamElement, StreamEvent, Tagged
from .channel import ChannelClosed
from .transport import (
    RuntimeJob,
    TransportSession,
    WorkerStartError,
    get_transport,
)
from .worker import SOURCE_CHANNEL, WorkerReport

__all__ = [
    "SourceEdge",
    "Stage",
    "default_transport",
    "merge_edges",
    "recovery_blocker",
    "recovery_decision",
    "run_job",
]

#: One source edge: ``(stage index, input side, element iterable)``.
SourceEdge = Tuple[int, str, Iterable[StreamElement]]


class Stage(NamedTuple):
    """Where the source elements of one stage go.

    A stage is one operator fanned out over ``partitions`` workers with
    contiguous indices from ``first_worker``; ``theta`` supplies the key an
    event is hash-routed by.  ``stamp_right`` says whether right-side events
    get an ingest clock too — true when the operator treats them as
    positives (right/full outer, every revision join).
    """

    first_worker: int
    partitions: int
    theta: ThetaCondition
    stamp_right: bool


def merge_edges(
    edges: Sequence[SourceEdge], seed: Optional[int] = None
) -> Iterator[Tuple[int, int, str, StreamElement]]:
    """Interleave the source edges into one delivery sequence.

    Yields ``(edge index, target stage, side, element)``.  Round-robin by
    default; with a seed, each step picks a random non-exhausted edge (each
    edge's internal order is preserved, which is all the watermark semantics
    require).
    """
    rng = random.Random(seed) if seed is not None else None
    edges = [(target, side, iter(elements)) for target, side, elements in edges]
    open_edges = list(range(len(edges)))
    turn = 0
    while open_edges:
        if rng is None:
            slot = open_edges[turn % len(open_edges)]
            turn += 1
        else:
            slot = rng.choice(open_edges)
        target, side, iterator = edges[slot]
        try:
            element = next(iterator)
        except StopIteration:
            open_edges.remove(slot)
            continue
        yield slot, target, side, element


def default_transport(transport: str, workers: int) -> str:
    """The transport of a run whose caller names no backend.

    A one-worker run executes inline, in the calling thread, whatever
    ``transport`` says: a hop to a single thread, process or seat buys no
    parallelism and costs a channel crossing per element.
    """
    return transport if workers > 1 else "inline"


def recovery_blocker(specs: Sequence) -> Optional[str]:
    """Why these workers cannot be recovered seat by seat (``None``: they can).

    Only output-collecting workers are checkpointable
    (:func:`repro.recovery.checkpoint.snapshot_worker`): a worker with peer
    edges has in-flight elements no per-seat snapshot captures, and a
    revision-publishing one keeps state the checkpoint codec does not cover.
    """
    if any(spec.downstream for spec in specs):
        return "peer edges"
    if not all(spec.collect_outputs for spec in specs):
        return "early emission"
    return None


def recovery_decision(
    transport: str, specs: Sequence, options
) -> tuple[bool, Optional[str]]:
    """``(recover, blocker)`` of a run of ``specs`` on ``transport``.

    Only the recovering socket session ever reads a checkpoint, so a run
    recovers when it runs on sockets, ``options`` ask for recovery and the
    workers are self-contained; ``blocker`` names why a socket run that asks
    for recovery cannot have it (``None`` otherwise).
    """
    if transport != "sockets" or not options.recovery_enabled:
        return False, None
    blocker = recovery_blocker(specs)
    return blocker is None, blocker


def _start_session(
    job: RuntimeJob, options, transport: str, recover: bool, chaos
) -> TransportSession:
    """Start the session a job runs on, degrading to threads when it cannot.

    Transports raise :class:`WorkerStartError` strictly before any source
    element is consumed (sandbox without fork, unreachable placement), so
    the thread transport can take over the same untouched edges.
    """
    try:
        if recover:
            from ..recovery.driver import RecoveringSession

            return RecoveringSession(job, options, chaos)
        return get_transport(transport).start(job, options.placement)
    except WorkerStartError as error:
        warnings.warn(
            f"{transport!r} workers could not start "
            f"({error}); falling back to the thread transport",
            RuntimeWarning,
            stacklevel=4,
        )
        return get_transport("threads").start(replace(job, checkpoint_interval=None))


def run_job(
    specs: Sequence,
    edges: Sequence[SourceEdge],
    stages: Sequence[Stage],
    options,
    transport: str,
    merge_seed: Optional[int] = None,
    *,
    collector: Optional[object] = None,
    trace_collector: Optional[object] = None,
    cancel: Optional[object] = None,
    chaos: Optional[object] = None,
) -> tuple[List[WorkerReport], int, int, str, List[RecoveryEvent], List[dict]]:
    """Route the merged source edges into a session of ``specs`` workers.

    Events are hash-routed to the worker owning their join key within the
    target stage (the stable, ``PYTHONHASHSEED``-independent
    :func:`repro.relation.stable_key_hash`), watermarks are broadcast to every
    partition of the stage, per-worker element order is preserved by the
    transport's FIFO channels, and the bounded inboxes (one micro-batch
    each) backpressure this loop.  Ingest clocks are stamped before an
    element can sit in any queue, so emit latency includes queueing (and,
    on the serialized transports, encoding) time; the inline transport
    stamps at processing time instead, where the two coincide.  After the
    edges drain, one done sentinel per (edge × partition) closes the
    cascade.

    ``collector`` / ``trace_collector`` (:class:`repro.obs.MetricsCollector`
    / :class:`repro.obs.TraceCollector`) see the live session mid-run and
    the final telemetry afterwards; ``options.metrics`` / ``options.trace``
    switch that instrumentation on, and a collector of a switched-off kind
    completes empty.  With tracing on
    this loop is the trace *source*: it samples events deterministically,
    records the root ``source`` span, and attaches the trace context the
    workers propagate.

    ``cancel`` is an optional :class:`threading.Event`-like object; once
    set, routing stops and the done sentinels go out, so the run settles
    early over what was already ingested.

    A socket run of self-contained (output-collecting) specs under
    ``options.recovery_enabled`` runs on a
    :class:`~repro.recovery.driver.RecoveringSession`, which re-executes
    dead seats; ``chaos`` is that session's failure-injection hook (see
    :class:`repro.recovery.chaos.ChaosInjector`) and is ignored everywhere
    else.  A socket run that asks for recovery with specs that are not
    self-contained (see :func:`recovery_blocker`) still runs, unrecovered,
    and says so with one :class:`RuntimeWarning`.

    Returns ``(reports, events_processed, backpressure_blocks, backend,
    recoveries, metrics)`` with reports in worker-index order, ``backend``
    the transport that actually ran and ``metrics`` the final snapshots the
    collector completes with: one per worker, plus the recovering session's
    own after a recovery (empty unless ``options.metrics``).
    """
    specs = tuple(specs)
    recover, blocker = recovery_decision(transport, specs, options)
    if blocker is not None:
        warnings.warn(
            f"restart_limit={options.restart_limit} asks for seat recovery, but "
            f"these workers cannot be checkpointed seat by seat ({blocker}); "
            "the run continues unrecovered and a dead seat fails it",
            RuntimeWarning,
            stacklevel=4,
        )
    job = RuntimeJob(
        specs,
        micro_batch_size=options.micro_batch_size,
        metrics=options.metrics,
        metrics_interval=options.metrics_interval,
        trace=options.trace,
        result_timeout=options.seat_timeout,
        checkpoint_interval=options.checkpoint_interval if recover else None,
    )
    sampler = None
    driver_tracer = None
    if job.trace:
        from ..obs.trace import Tracer, TraceSampler, span_detail

        sampler = TraceSampler(options.trace_sample_rate)
        driver_tracer = Tracer("driver")
    session = _start_session(job, options, transport, recover, chaos)
    if collector is not None:
        collector.attach(session)
    if trace_collector is not None:
        trace_collector.attach(session)
    events_processed = 0
    key_hashes = StableKeyHashes()
    with session:
        stamp = session.stamps_ingest
        send = session.send
        try:
            for _edge, target, side, element in merge_edges(edges, merge_seed):
                if cancel is not None and cancel.is_set():
                    break
                worker, partitions, theta, stamp_right = stages[target]
                if isinstance(element, StreamEvent):
                    events_processed += 1
                    clock = (
                        perf_counter()
                        if stamp and (stamp_right or side == LEFT)
                        else None
                    )
                    context = None
                    if sampler is not None:
                        trace_id = sampler.sample()
                        if trace_id is not None:
                            now = perf_counter()
                            root = driver_tracer.record(
                                "source",
                                trace_id,
                                None,
                                now,
                                now,
                                side=side,
                                **span_detail(element),
                            )
                            context = (trace_id, root)
                    if partitions > 1:
                        key = (
                            theta.left_key(element.tuple)
                            if side == LEFT
                            else theta.right_key(element.tuple)
                        )
                        worker += key_hashes[key] % partitions
                    send(worker, None, Tagged(side, element, clock, context))
                else:
                    tagged = Tagged(side, element)
                    for index in range(worker, worker + partitions):
                        send(index, SOURCE_CHANNEL, tagged)
        except ChannelClosed:
            # A worker died and closed its channel; stop routing — the
            # failure is re-raised by finish() after every worker is joined.
            pass
        for target, _side, _iterator in edges:
            worker, partitions, _theta, _stamp_right = stages[target]
            for index in range(worker, worker + partitions):
                session.done(index)
        reports = session.finish()
        blocks = session.backpressure_blocks
        recoveries = session.recoveries
    snapshots = [report.metrics for report in reports if report.metrics is not None]
    if recoveries and job.metrics:
        # Only a RecoveringSession reports recoveries: its driver-side
        # registry (and tracer, below) join the worker telemetry.
        snapshots.append(session.registry.snapshot())
    if collector is not None:
        collector.complete(snapshots)
    if trace_collector is not None:
        span_lists = [report.spans for report in reports if report.spans]
        if job.trace:
            span_lists.append(driver_tracer.dump())
            if recoveries:
                span_lists.append(session.tracer.dump())
        trace_collector.complete(span_lists)
    return reports, events_processed, blocks, session.name, recoveries, snapshots
