"""Transports: how runtime workers are placed and wired together.

A *transport* turns a :class:`RuntimeJob` — worker specs plus the
micro-batch size and telemetry knobs — into a live :class:`TransportSession`
the driver routes source elements into.  Four transports share the one worker
loop of :mod:`repro.runtime.worker`:

* ``inline`` — every worker lives in the caller's thread; delivery is a
  synchronous call, so elements flow depth-first through the topology (the
  fast path for small inputs, and the reference for determinism tests);
* ``threads`` — one thread per worker, connected by bounded
  :class:`~repro.runtime.channel.Channel` inboxes (cheap, but the GIL caps
  CPU-bound lineage work at one core);
* ``processes`` — one forked OS process per worker over bounded
  ``multiprocessing`` queues, elements crossing in the compact codecs of
  :mod:`repro.parallel.serialize` and reports as pickled tuples (true
  multi-core speedup);
* ``sockets`` — one worker per TCP endpoint (driver-spawned locally, or a
  remote ``python -m repro.runtime.worker --listen`` joined through a
  :class:`~repro.runtime.placement.Placement`): the same codecs in
  length-prefixed frames, the first distributed backend
  (:mod:`repro.runtime.sockets`).

Every session exposes the identical driver contract — ``send(worker,
channel, element)``, ``done(worker)`` once per producer edge, ``finish()``
for the ordered :class:`~repro.runtime.worker.WorkerReport` list — so the
one router loop (:func:`repro.runtime.driver.run_job`) drives all four
backends.

One queue rule bounds every queued edge: a worker inbox holds one
micro-batch (``micro_batch_size`` elements on threads and socket seats,
:data:`QUEUE_MESSAGES` messages of up to one micro-batch each on a process
queue), and a socket edge also keeps at most four micro-batches on the
wire.  A deeper thread inbox buys nothing: under the GIL the consumer
drains no faster for having more queued, so the extra depth only lets the
producer run ahead and every element wait longer before it is operated
on.  A producer that finds its consumer's inbox full parks until the
consumer takes a batch; ``backpressure_blocks`` counts those parks — the
flow control working, not a fault.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import traceback
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Hashable, List, Optional

from ..obs.metrics import DEFAULT_METRICS_INTERVAL
from ..stream.elements import Tagged
from .channel import Channel, ChannelClosed
from .collector import own_collector
from .placement import Placement
from .worker import Worker, WorkerReport, decode_report, encode_report, run_worker

#: Every transport name, the in-process ones first: ``TRANSPORTS[:2]`` can run
#: callables (taps, probes) in the driver's address space, ``TRANSPORTS[1:]``
#: run workers in parallel.
TRANSPORTS = ("inline", "threads", "processes", "sockets")

#: Poll interval (seconds) for queue operations that must watch worker
#: liveness.  Slow-but-alive workers are waited on indefinitely; only a dead
#: worker aborts the run.
_POLL_INTERVAL = 1.0

#: Messages a process-transport queue holds: one micro-batch being taken
#: while the next is put.
QUEUE_MESSAGES = 2


class WorkerStartError(RuntimeError):
    """Transport workers could not be started (sandbox, unreachable host).

    Raised strictly *before* any input element is consumed, so callers can
    fall back to another transport over the same untouched element iterator
    — queries degrade to the thread transport with a warning.
    """


def preferred_context() -> multiprocessing.context.BaseContext:
    """The cheapest usable multiprocessing context (fork, else spawn)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork missing on this platform
        return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class RuntimeJob:
    """Everything a transport needs to wire one topology of workers."""

    specs: tuple
    #: Elements a worker drains per step, one process message or socket
    #: frame carries, and a thread or seat inbox holds.
    micro_batch_size: int = 64
    #: Give every worker a metrics registry (see :mod:`repro.obs`): workers
    #: sample their counts and operator state into it and ship periodic
    #: snapshots to the driver.  Counting itself is always on.
    metrics: bool = False
    #: Seconds between shipped snapshots on queued transports (also the
    #: trace-span flush cadence).
    metrics_interval: float = DEFAULT_METRICS_INTERVAL
    #: Give every worker a tracer (see :mod:`repro.obs.trace`): sampled
    #: elements carry a trace context and workers record spans into bounded
    #: flight-recorder rings.
    trace: bool = False
    #: Socket transport only: seconds to wait for each worker's result frame
    #: before declaring the seat lost (``None`` waits forever, the
    #: historical behaviour).  A timeout triggers a flight-recorder dump.
    result_timeout: Optional[float] = None
    #: Seconds between worker state checkpoints (window-maintainer
    #: snapshots shipped to the driver).  ``0.0`` checkpoints at every
    #: micro-batch boundary; ``None`` (default) disables checkpointing —
    #: recovery, when enabled, then replays the failed shard from zero.
    #: The router sets it only for the recovering session, the one reader.
    checkpoint_interval: Optional[float] = None

    def settings(self) -> "RuntimeJob":
        """This job without its specs: the record that crosses a process or
        socket boundary beside the one spec the receiving worker runs."""
        return replace(self, specs=())


class TransportSession:
    """One live run: drivers route in, workers report back.

    Context manager: ``__exit__`` releases every resource (threads joined,
    processes terminated, sockets closed) even when routing failed midway.
    """

    #: Transport name recorded in results (the backend that actually ran).
    name: str = ""
    #: Whether the driver should stamp ingest clocks (queued transports
    #: include queueing time in emit latency; inline stamps at processing).
    stamps_ingest: bool = True

    def __init__(self, job: RuntimeJob) -> None:
        self._job = job
        # The live store: what each worker sent upstream before its report.
        # One slot per worker, allocated up front, so worker and reader
        # threads only ever assign or extend — safe to read under the GIL.
        count = len(job.specs)
        self._live_metrics: List[Optional[dict]] = [None] * count
        self._live_spans: List[list] = [[] for _ in range(count)]
        self._checkpoints: List[Optional[tuple]] = [None] * count

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        raise NotImplementedError

    def done(self, target: int) -> None:
        raise NotImplementedError

    def finish(self) -> List[WorkerReport]:
        raise NotImplementedError

    def _file(self, index: int, kind: str, payload) -> None:
        """File what worker ``index`` handed its ``upstream`` callable (see
        :func:`~repro.runtime.worker.run_worker`): spans accumulate, a
        metrics snapshot or checkpoint replaces the one before it."""
        if kind == "spans":
            self._live_spans[index].extend(payload)
        elif kind == "metrics":
            self._live_metrics[index] = payload
        else:
            self._checkpoints[index] = payload

    def metrics(self) -> List[dict]:
        """Most recent per-worker metrics snapshots, in worker order: live
        mid-run, each worker's final one once it settled.

        Empty unless the job ran with ``metrics=True``.
        """
        return [snapshot for snapshot in self._live_metrics if snapshot is not None]

    def trace_spans(self) -> List[dict]:
        """Spans shipped so far (live, mid-run), all workers flattened.

        Empty unless the job ran with ``trace=True``; the full rings
        travel in the worker reports, and span ids make the overlap safe
        to merge.  Remote sessions return spans already normalized onto
        the driver's clock.
        """
        return [span for spans in self._live_spans for span in list(spans)]

    def latest_checkpoint(self, index: int):
        """The last checkpoint worker ``index`` shipped (``None`` when it
        never checkpointed or checkpointing was off)."""
        return self._checkpoints[index]

    @property
    def backpressure_blocks(self) -> int:
        return 0

    @property
    def recoveries(self) -> list:
        """Seat recoveries performed so far (only a
        :class:`~repro.recovery.driver.RecoveringSession` ever has any)."""
        return []

    def __enter__(self) -> "TransportSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cleanup(exc is not None)

    def _cleanup(self, failed: bool) -> None:  # pragma: no cover - overridden
        pass


class Transport:
    """Factory of sessions for one backend."""

    name: str = ""

    def start(self, job: RuntimeJob, placement: Optional[Placement] = None) -> TransportSession:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# inline
# --------------------------------------------------------------------------- #
def _accept_batch_of_one(worker: Worker, channel: Hashable, tagged: Tagged) -> None:
    worker.accept(channel, tagged)
    worker.end_batch()


class InlineSession(TransportSession):
    """Synchronous depth-first delivery in the caller's thread.

    Each element pushed with :meth:`send` is fully processed — including
    every transitive downstream output — before the call returns, which is
    exactly the depth-first order the original inline executors used.  The
    session is its workers' emitter: a send is the delivery.
    """

    name = "inline"
    stamps_ingest = False

    def __init__(self, job: RuntimeJob) -> None:
        self._workers = [Worker.for_job(spec, self, job) for spec in job.specs]
        # Each element is a batch of one: a batched worker ends its batch
        # after every accept, any other worker is called straight.
        self._deliver = [
            partial(_accept_batch_of_one, worker) if worker.batched else worker.accept
            for worker in self._workers
        ]
        self._remaining = [spec.producers for spec in job.specs]
        self._reports: List[Optional[WorkerReport]] = [None] * len(job.specs)

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        self._deliver[target](channel, tagged)

    def done(self, target: int) -> None:
        self._remaining[target] -= 1
        if self._remaining[target] == 0 and self._reports[target] is None:
            self._reports[target] = self._workers[target].finish()

    def flush(self) -> None:
        pass

    def finish(self) -> List[WorkerReport]:
        # Sources close with CLOSED watermarks and the driver sends one done
        # per producer edge, so by now every worker has settled; close any
        # straggler defensively, in topological (index) order.
        for index, report in enumerate(self._reports):
            if report is None:
                self._reports[index] = self._workers[index].finish()
        return list(self._reports)

    def metrics(self) -> List[dict]:
        # Single-threaded: sampling the live operators directly is safe.
        snapshots = [
            report.metrics if report is not None else worker.metrics_snapshot()
            for worker, report in zip(self._workers, self._reports)
        ]
        return [snapshot for snapshot in snapshots if snapshot is not None]

    def trace_spans(self) -> List[dict]:
        # Single-threaded: reading the live rings directly is safe.
        return [
            span
            for worker in self._workers
            if worker.tracer is not None
            for span in worker.tracer.dump()
        ]

    def _cleanup(self, failed: bool) -> None:
        # Every worker's emitter is this session: break the cycle, so the
        # run's state is freed by reference counting once the run is done.
        for worker in self._workers:
            worker.emitter = None


class InlineTransport(Transport):
    name = "inline"

    def start(self, job: RuntimeJob, placement: Optional[Placement] = None) -> InlineSession:
        return InlineSession(job)


# --------------------------------------------------------------------------- #
# micro-batched sends (threads, processes, sockets)
# --------------------------------------------------------------------------- #
class BatchingEmitter:
    """Micro-batch downstream sends, encoding them for a serialized boundary.

    ``putter`` is the transport-specific delivery half: ``put(target,
    batch)`` ships one micro-batch, ``put_done(target)`` one done sentinel.
    With ``encoded`` (processes, sockets) every element is codec-encoded
    first; thread workers hand their elements over as they are.  Watermarks
    count toward the micro-batch budget too: a partition receiving few
    events must still ship its broadcast watermarks (bounding pending growth
    and letting an otherwise-idle worker finalize windows).
    """

    def __init__(self, putter, micro_batch_size: int, encoded: bool = True) -> None:
        self._encode = None
        if encoded:
            from ..parallel.serialize import encode_revision_tagged

            self._encode = encode_revision_tagged
        self._putter = putter
        self._micro = micro_batch_size
        self._pending: Dict[int, list] = {}

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        entries = self._pending.setdefault(target, [])
        entries.append((channel, tagged if self._encode is None else self._encode(tagged)))
        if len(entries) >= self._micro:
            self._putter.put(target, self._pending.pop(target))

    def done(self, target: int) -> None:
        self.flush_target(target)
        self._putter.put_done(target)

    def flush_target(self, target: int) -> None:
        entries = self._pending.pop(target, None)
        if entries:
            self._putter.put(target, entries)

    def flush(self) -> None:
        for target in list(self._pending):
            self.flush_target(target)


# --------------------------------------------------------------------------- #
# threads
# --------------------------------------------------------------------------- #
class ThreadSession(TransportSession):
    """One worker thread per spec over bounded channel inboxes.

    Workers send micro-batches, like every queued transport, through a
    :class:`BatchingEmitter` of their own (no codec: elements stay
    objects) that the worker loop flushes at each batch end; the session
    is the putter it delivers through.  The driver puts element by element:
    a partial batch held back in the driver would only add wait.
    """

    name = "threads"

    def __init__(self, job: RuntimeJob) -> None:
        super().__init__(job)
        self._inboxes: List[Channel] = [
            Channel(job.micro_batch_size, producers=spec.producers) for spec in job.specs
        ]
        self._failures: List[BaseException] = []
        self._reports: List[Optional[WorkerReport]] = [None] * len(job.specs)
        self._threads = [
            threading.Thread(
                target=self._work,
                args=(index,),
                name=f"runtime-worker-{spec.index}",
            )
            for index, spec in enumerate(job.specs)
        ]
        for thread in self._threads:
            thread.start()

    def _work(self, index: int) -> None:
        spec = self._job.specs[index]
        dones_sent = False
        try:
            self._reports[index] = run_worker(
                spec,
                self._inboxes[index],
                BatchingEmitter(self, self._job.micro_batch_size, encoded=False),
                self._job,
                upstream=partial(self._file, index),
            )
            dones_sent = True
        except ChannelClosed:
            # A consumer died; the failure that closed its channel is the
            # one reported.
            pass
        except BaseException as error:  # noqa: BLE001 - reported to caller
            self._failures.append(error)
            self._inboxes[index].close()
        finally:
            if not dones_sent:
                # Downstream consumers must still learn this producer ended,
                # or the close cascade (and finish's joins) would hang.
                for first, parts, _side, _keys in spec.downstream:
                    for offset in range(parts):
                        self._inboxes[first + offset].producer_done()

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        self._inboxes[target].put((channel, tagged))

    def done(self, target: int) -> None:
        self._inboxes[target].producer_done()

    def put(self, target: int, batch: list) -> None:
        self._inboxes[target].put_all(batch)

    put_done = done

    def finish(self) -> List[WorkerReport]:
        for thread in self._threads:
            thread.join()
        if self._failures:
            raise self._failures[0]
        return [report for report in self._reports]  # all set once joined

    @property
    def backpressure_blocks(self) -> int:
        return sum(inbox.put_blocks for inbox in self._inboxes)

    def _cleanup(self, failed: bool) -> None:
        if failed:
            for inbox in self._inboxes:
                inbox.close()
        for thread in self._threads:
            thread.join(timeout=5.0)


class ThreadTransport(Transport):
    name = "threads"

    def start(self, job: RuntimeJob, placement: Optional[Placement] = None) -> ThreadSession:
        return ThreadSession(job)


# --------------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------------- #
class _QueueInbox:
    """Worker-side inbox over one multiprocessing queue.

    Messages are encoded micro-batches; ``None`` is one producer's done
    sentinel.  Batch size is set by the producer, so ``max_size`` is
    advisory here.
    """

    def __init__(self, queue, producers: int) -> None:
        from ..parallel.serialize import decode_revision_tagged

        self._decode = decode_revision_tagged
        self._queue = queue
        self._remaining = producers

    def take_batch(self, max_size: int) -> Optional[List[tuple]]:
        while self._remaining > 0:
            message = self._queue.get()
            if message is None:
                self._remaining -= 1
                continue
            return [(channel, self._decode(code)) for channel, code in message]
        return None


class _WorkerQueuePutter:
    """Worker-side puts into sibling queues, abortable on run failure."""

    def __init__(self, queues, abort) -> None:
        self._queues = queues
        self._abort = abort

    def _put(self, target: int, item) -> None:
        # A sibling worker may have died with a full queue nobody drains;
        # the parent sets `abort` when it learns of the failure, which is
        # this worker's signal to stop instead of blocking forever.
        while True:
            try:
                self._queues[target].put(item, timeout=_POLL_INTERVAL)
                return
            except queue_module.Full:
                if self._abort.is_set():
                    raise RuntimeError("run aborted while publishing downstream") from None

    def put(self, target: int, batch) -> None:
        self._put(target, batch)

    def put_done(self, target: int) -> None:
        self._put(target, None)


def _process_worker_main(spec, worker_queues, out_queue, abort, job: RuntimeJob) -> None:
    """Process-transport worker entry point: the process owns its collector
    (:mod:`repro.runtime.collector`) and runs one job under it."""
    with own_collector(forked=True):
        _process_worker_job(spec, worker_queues, out_queue, abort, job)


def _process_worker_job(spec, worker_queues, out_queue, abort, job: RuntimeJob) -> None:
    """Run the loop, report once.

    Everything the worker sends before its report rides the result queue
    under its own message kind; the driver files it as it drains.
    """
    try:
        inbox = _QueueInbox(worker_queues[spec.index], spec.producers)
        emitter = BatchingEmitter(
            _WorkerQueuePutter(worker_queues, abort), job.micro_batch_size
        )

        def upstream(kind: str, payload) -> None:
            out_queue.put((spec.index, kind, payload))

        report = run_worker(spec, inbox, emitter, job, upstream)
        out_queue.put((spec.index, "ok", encode_report(report)))
    except BaseException:  # noqa: BLE001 - marshalled to the driver
        out_queue.put((spec.index, "error", traceback.format_exc()))


class _DriverQueuePutter:
    """Driver-side puts that cannot hang on a dead worker's full queue."""

    def __init__(self, session: "ProcessSession") -> None:
        self._session = session

    def _put(self, target: int, item) -> None:
        session = self._session
        try:
            session.queues[target].put_nowait(item)
            return
        except queue_module.Full:
            session.blocks += 1
        while True:
            try:
                session.queues[target].put(item, timeout=_POLL_INTERVAL)
                return
            except queue_module.Full:
                # A failed sibling worker can make the whole pipeline stall
                # while this one stays alive: surface marshalled errors
                # instead of spinning on liveness alone.
                session.drain_results()
                if not session.workers[target].is_alive():
                    raise RuntimeError(
                        f"worker {target} died with a full input queue"
                    ) from None

    def put(self, target: int, batch) -> None:
        self._put(target, batch)

    def put_done(self, target: int) -> None:
        self._put(target, None)


def _close_queue(queue, failed: bool) -> None:
    """Release one ``multiprocessing`` queue's resources in this process.

    ``close`` stops the feeder thread this process's first put started, and
    the feeder closes both pipe ends on its way out: ``join_thread`` waits
    for that after a clean run, while after a failure nothing waits for
    messages a dead worker will never read.  A queue this process never put
    into has no feeder, so its pipe ends are closed here.
    """
    if failed:
        queue.cancel_join_thread()
    queue.close()
    if not failed:
        queue.join_thread()
    if queue._thread is None:
        queue._reader.close()
        queue._writer.close()


class ProcessSession(TransportSession):
    """One forked OS process per worker over bounded queues.

    The session owns its queues and processes: :meth:`finish` (or leaving
    the ``with`` block) joins the workers and releases every queue's
    feeder thread and pipe and every process's sentinel pipe.
    """

    name = "processes"

    def __init__(self, job: RuntimeJob) -> None:
        super().__init__(job)
        self.blocks = 0
        self._released = False
        self._results: Dict[int, tuple] = {}
        self._failure: Optional[BaseException] = None
        context = preferred_context()
        settings = job.settings()
        self.workers: List = []
        try:
            # Queue construction can itself fail in sandboxes (sem_open
            # denied), so it sits under the same fallback guard as process
            # start-up.
            self.queues = [context.Queue(maxsize=QUEUE_MESSAGES) for _ in job.specs]
            self._out_queue = context.Queue()
            self._abort = context.Event()
            self.workers = [
                context.Process(
                    target=_process_worker_main,
                    args=(spec, self.queues, self._out_queue, self._abort, settings),
                    name=f"runtime-worker-{spec.index}",
                    daemon=True,
                )
                for spec in job.specs
            ]
            for worker in self.workers:
                worker.start()
        except (OSError, PermissionError) as error:
            for worker in self.workers:
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=5.0)
            raise WorkerStartError(f"cannot start worker processes: {error}") from error
        self._emitter = BatchingEmitter(_DriverQueuePutter(self), job.micro_batch_size)

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        self._emitter.send(target, channel, tagged)

    def done(self, target: int) -> None:
        self._emitter.done(target)

    def _take_result(self, message) -> None:
        """Record one worker message; a failure aborts the whole run."""
        index, kind, payload = message
        if kind == "ok":
            self._results[index] = payload
        elif kind == "error":
            self._abort.set()
            # Remember the failure: a metrics poll draining the queue may
            # consume the error message before finish() gets to it.
            self._failure = RuntimeError(f"worker {index} failed:\n{payload}")
            raise self._failure
        else:
            self._file(index, kind, payload)

    def drain_results(self) -> None:
        while True:
            try:
                self._take_result(self._out_queue.get_nowait())
            except queue_module.Empty:
                return

    def _drain_quietly(self) -> None:
        if self._released:
            return
        try:
            self.drain_results()
        except RuntimeError:
            pass  # stored in self._failure; finish() raises it

    def metrics(self) -> List[dict]:
        self._drain_quietly()
        return super().metrics()

    def trace_spans(self) -> List[dict]:
        self._drain_quietly()
        return super().trace_spans()

    def finish(self) -> List[WorkerReport]:
        self._emitter.flush()
        count = len(self._job.specs)
        try:
            if self._failure is not None:
                raise self._failure
            grace_polls = 5
            while len(self._results) < count:
                try:
                    message = self._out_queue.get(timeout=_POLL_INTERVAL)
                except queue_module.Empty:
                    missing = sorted(set(range(count)) - set(self._results))
                    if any(self.workers[index].is_alive() for index in missing):
                        # Slow workers (large final window drains) are waited
                        # on for as long as they live — no arbitrary deadline.
                        continue
                    # Every missing worker has exited; its result may still
                    # be in flight through the queue's feeder pipe, so poll a
                    # few more times before declaring it lost.
                    grace_polls -= 1
                    if grace_polls <= 0:
                        raise RuntimeError(
                            f"workers {missing} exited without a result"
                        ) from None
                    continue
                self._take_result(message)
        except BaseException:
            self._release(failed=True)
            raise
        self._release(failed=False)
        return [decode_report(self._results.pop(index)) for index in range(count)]

    def _release(self, failed: bool) -> None:
        """Join the workers, then free what the session holds in this
        process; idempotent.  After a failure the abort flag first unblocks
        any worker parked on a full queue of a dead consumer."""
        if self._released:
            return
        self._released = True
        # The emitter's putter points back at this session: drop the cycle.
        self._emitter = None
        if failed:
            self._abort.set()
        for worker in self.workers:
            worker.join(timeout=5.0)
        for worker in self.workers:
            if worker.is_alive():  # pragma: no cover - defensive cleanup
                worker.terminate()
                worker.join()
            worker.close()
        for queue in (*self.queues, self._out_queue):
            _close_queue(queue, failed)

    @property
    def backpressure_blocks(self) -> int:
        return self.blocks

    def _cleanup(self, failed: bool) -> None:
        self._release(failed)


class ProcessTransport(Transport):
    name = "processes"

    def start(self, job: RuntimeJob, placement: Optional[Placement] = None) -> ProcessSession:
        return ProcessSession(job)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def get_transport(name: str) -> Transport:
    """Look one transport up by name (``inline``/``threads``/``processes``/``sockets``)."""
    if name == "inline":
        return InlineTransport()
    if name == "threads":
        return ThreadTransport()
    if name == "processes":
        return ProcessTransport()
    if name == "sockets":
        from .sockets import SocketTransport

        return SocketTransport()
    raise ValueError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")
