"""The socket transport: runtime workers behind TCP endpoints.

The first distributed backend.  Topologically it is the process transport
with the ``multiprocessing`` queues swapped for TCP connections:

* every worker is a server (driver-spawned local process by default, or a
  remote ``python -m repro.runtime.worker --listen HOST:PORT`` named in the
  :class:`~repro.runtime.placement.Placement`);
* the driver connects to each worker and ships a *job* frame — the worker's
  picklable spec, the fully resolved worker-index → address map, and the
  job's settings (the :class:`RuntimeJob` record without its specs) — then
  streams micro-batches of codec-encoded elements
  (:mod:`repro.parallel.serialize`) as length-prefixed pickle frames;
* workers open direct worker→worker connections for downstream routing (the
  address map makes peers addressable without relaying through the driver);
* done sentinels are ``("done", job)`` frames counted against the spec's
  producer count, exactly like the queue backend's ``None`` messages;
* what a worker sends before settling — metrics snapshots, spans,
  checkpoints — rides its driver connection as ``(kind, job, index,
  payload)`` frames; one result (or marshalled traceback) frame ends it.

Backpressure survives the boundary through credits, not the kernel's socket
buffers (which would absorb a whole run before ``sendall`` ever blocked).
A seat's inbox is a :class:`~repro.runtime.channel.Channel` of one
micro-batch, the rule every worker inbox follows.  Its reader feeds each
frame from the driver into it in one ``put_all`` — which waits while the
inbox is full — and then answers ``("credit", job, index, n)``.  The
driver keeps at most ``4 × micro_batch_size`` uncredited elements per
seat: a send that would exceed that parks until credits come back, the
seat's connection ends, or ``result_timeout`` passes without one.  An edge
with nothing outstanding always takes the frame, and done frames need no
credit.  So a driver→seat edge holds one micro-batch in the inbox (plus
less than one frame taken whole) and four on the wire.  Those parks are
the session's ``backpressure_blocks``: flow control at work, not faults.
Seat→seat (peer) edges are uncredited: there a full inbox stops the reader
and plain TCP flow control blocks the sending seat.

Connections block once connected.  The only deadline on a live seat is
``result_timeout``; a slow seat is otherwise waited on without limit, and
a dead one is noticed by its reader thread seeing the connection end.

Emit latencies and trace-span timestamps stay directly comparable across
*local* socket workers because ``time.perf_counter`` reads the system-wide
monotonic clock.  Across real hosts they are normalized: every worker sends
a ``("anchor", job, index, (wall_clock, perf_counter))`` frame in the job
handshake, the driver estimates the perf-counter offset from it (trusting
NTP-synchronized wall clocks), shifts incoming spans and report latencies
onto its own clock scale, and surfaces the estimate as
``WorkerReport.clock_offset``.
"""

from __future__ import annotations

import logging
import pickle
import selectors
import socket
import struct
import threading
import time
import traceback
import uuid
from typing import Dict, Hashable, List, Optional

from ..obs.trace import clock_anchor, estimate_clock_offset, shift_spans
from ..recovery.types import SeatFailure
from ..stream.elements import Tagged
from . import wire
from .channel import Channel, ChannelClosed
from .placement import Placement, parse_host_port
from .transport import (
    BatchingEmitter,
    RuntimeJob,
    Transport,
    TransportSession,
    WorkerStartError,
    preferred_context,
)
from .worker import WorkerReport, decode_report, encode_report, run_worker

_LOGGER = logging.getLogger(__name__)

_HEADER = struct.Struct("!I")
#: How long a peer connection waits for its job frame to arrive before
#: giving up (the driver sends every job frame before routing any element,
#: so in practice this only trips on abandoned runs).
_JOB_WAIT_SECONDS = 60.0
#: How long the driver waits for spawned local workers to report their port
#: and for each connection to be accepted.
_SPAWN_WAIT_SECONDS = 30.0
#: Uncredited elements the driver keeps in flight per seat, in micro-batches.
_CREDIT_BATCHES = 4


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: object) -> None:
    """Ship one length-prefixed pickled frame."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def send_raw_frame(sock: socket.socket, data: bytes) -> None:
    """Ship one length-prefixed pre-encoded frame (binary wire payloads)."""
    sock.sendall(_HEADER.pack(len(data)) + data)


def _connect(address: str) -> socket.socket:
    """A blocking connection to ``address``; only the connect has a deadline.

    ``create_connection``'s timeout would otherwise stay on the socket, and a
    seat silent for that long — busy, not dead — would read as a lost
    connection.
    """
    connection = socket.create_connection(
        parse_host_port(address), timeout=_SPAWN_WAIT_SECONDS
    )
    connection.settimeout(None)
    return connection


def _is_columnar(spec) -> bool:
    return getattr(spec, "layout", "object") == "columnar"


def send_batch(sock: socket.socket, job_key: str, batch, binary: bool) -> None:
    """Ship one micro-batch of codec-encoded elements.

    With ``binary`` (the receiving spec is columnar) the batch ships as a
    binary column frame — no pickle on the element hot path.  A batch the
    fixed layout cannot express, like every batch of an object-layout job,
    is one pickled ``batch`` frame; the receiver dispatches per frame, so
    the mix is safe.
    """
    if binary:
        try:
            data = wire.encode_batch_frame(job_key, batch)
        except wire.WireFormatError:
            pass
        else:
            send_raw_frame(sock, data)
            return
    send_frame(sock, ("batch", job_key, batch))


def recv_frame(file) -> Optional[object]:
    """Read one frame from a buffered socket file; ``None`` on EOF.

    Frames self-identify by first byte: binary column frames
    (:mod:`repro.runtime.wire`, columnar-layout micro-batches) decode
    through the wire codec, everything else unpickles — both peers of a
    connection can mix the two freely.
    """
    header = file.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack(header)
    data = file.read(length)
    if len(data) < length:
        return None
    return wire.decode_payload(data)


# --------------------------------------------------------------------------- #
# worker server
# --------------------------------------------------------------------------- #
class _EncodedChannelInbox:
    """Decode codec entries drained from the connection-fed channel."""

    def __init__(self, channel: Channel) -> None:
        from ..parallel.serialize import decode_revision_tagged

        self._decode = decode_revision_tagged
        #: Exposed for the worker loop's inbox occupancy gauges.
        self.channel = channel

    def take_batch(self, max_size: int) -> Optional[List[tuple]]:
        batch = self.channel.take_batch(max_size)
        if batch is None:
            return None
        return [(channel, self._decode(code)) for channel, code in batch]


class _PeerPutter:
    """Worker-side delivery to downstream peers over cached connections."""

    def __init__(self, addresses, job_key: str, binary: bool) -> None:
        self._addresses = addresses
        self._job_key = job_key
        self._binary = binary
        self._connections: Dict[int, socket.socket] = {}

    def _connection(self, target: int) -> socket.socket:
        connection = self._connections.get(target)
        if connection is None:
            connection = self._connections[target] = _connect(self._addresses[target])
        return connection

    def put(self, target: int, batch) -> None:
        send_batch(self._connection(target), self._job_key, batch, self._binary)

    def put_done(self, target: int) -> None:
        send_frame(self._connection(target), ("done", self._job_key))

    def close(self) -> None:
        for connection in self._connections.values():
            try:
                connection.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


class _ReplySender:
    """Serialised writes to one driver connection.

    The connection handler sends the final result frame and the worker
    thread piggybacks periodic metrics frames on the same socket, so every
    write goes through one lock.  Failures are swallowed: a driver that
    vanished mid-run simply stops receiving snapshots.
    """

    def __init__(self, connection: socket.socket) -> None:
        self._connection = connection
        self._lock = threading.Lock()

    def send(self, payload: object) -> bool:
        with self._lock:
            try:
                send_frame(self._connection, payload)
                return True
            except OSError:
                return False


class _ServerJob:
    """One job's state on a worker server: inbox, worker thread, result."""

    def __init__(
        self, key: str, spec, addresses, job: RuntimeJob, reply: _ReplySender, restore
    ) -> None:
        self.key = key
        self.spec = spec
        self.inbox: Channel = Channel(job.micro_batch_size, producers=spec.producers)
        self.done_event = threading.Event()
        self.result: tuple = ("error", key, spec.index, "worker never ran")
        #: Most recent metrics snapshot per worker index, read by the
        #: entrypoint's Prometheus endpoint (``--metrics-port``).
        self.latest_metrics: Dict[int, dict] = {}
        self._reply = reply
        self._thread = threading.Thread(
            target=self._run,
            args=(addresses, job, restore),
            name=f"runtime-socket-worker-{spec.index}",
            daemon=True,
        )
        self._thread.start()

    def _upstream(self, kind: str, payload) -> None:
        """Everything the worker sends before its result rides the driver
        connection as a ``(kind, job, index, payload)`` frame; the locked
        reply sender serialises the kinds with each other."""
        if kind == "metrics":
            self.latest_metrics[self.spec.index] = payload
        self._reply.send((kind, self.key, self.spec.index, payload))

    def _run(self, addresses, job: RuntimeJob, restore) -> None:
        putter = _PeerPutter(addresses, self.key, _is_columnar(self.spec))
        try:
            # Handshake anchor: a (wall_clock, perf_counter) pair the driver
            # uses to map this worker's timestamps onto its own clock scale
            # (meaningful across real hosts; near-zero on localhost).  Sent
            # before any metrics/spans frame.
            self._reply.send(("anchor", self.key, self.spec.index, clock_anchor()))
            report = run_worker(
                self.spec,
                _EncodedChannelInbox(self.inbox),
                BatchingEmitter(putter, job.micro_batch_size),
                job,
                self._upstream,
                restore,
            )
            self.result = ("result", self.key, self.spec.index, encode_report(report))
        except BaseException:  # noqa: BLE001 - marshalled to the driver
            self.result = ("error", self.key, self.spec.index, traceback.format_exc())
        finally:
            putter.close()
            self.done_event.set()

    def feed(self, frame, credit: bool = False) -> None:
        """Take one frame into the inbox; with ``credit`` (the driver's
        connection), answer an accepted batch with a credit frame."""
        if frame[0] == "batch":
            entries = frame[2]
            self.inbox.put_all(entries)
            if credit:
                self._reply.send(("credit", self.key, self.spec.index, len(entries)))
        elif frame[0] == "done":
            self.inbox.producer_done()

    def abort(self) -> None:
        """The driver vanished mid-run: unblock the worker thread."""
        _LOGGER.warning(
            "job %s (worker %s) aborted: driver connection lost",
            self.key,
            self.spec.index,
        )
        self.inbox.close()


class _JobRegistry:
    """Jobs live on a server keyed by the driver-chosen job id."""

    #: How many finished jobs' metrics the registry keeps for scrapes.
    RETAIN_FINISHED = 8

    def __init__(self) -> None:
        self._jobs: Dict[str, _ServerJob] = {}
        # Finished jobs' final snapshots, insertion-ordered and bounded, so
        # the Prometheus endpoint reports the last runs between jobs too.
        self._retained: Dict[str, Dict[int, dict]] = {}
        self._condition = threading.Condition()

    def add(self, job: _ServerJob) -> None:
        with self._condition:
            self._jobs[job.key] = job
            self._condition.notify_all()

    def jobs(self) -> List[_ServerJob]:
        """A snapshot of the currently-running jobs (metrics endpoint)."""
        with self._condition:
            return list(self._jobs.values())

    def wait_for(self, key: str) -> _ServerJob:
        with self._condition:
            found = self._condition.wait_for(
                lambda: key in self._jobs, timeout=_JOB_WAIT_SECONDS
            )
            if not found:
                raise RuntimeError(f"no job {key!r} arrived within {_JOB_WAIT_SECONDS}s")
            return self._jobs[key]

    def remove(self, key: str) -> None:
        with self._condition:
            job = self._jobs.pop(key, None)
            if job is not None and job.latest_metrics:
                self._retained[key] = dict(job.latest_metrics)
                while len(self._retained) > self.RETAIN_FINISHED:
                    self._retained.pop(next(iter(self._retained)))

    def metrics_snapshots(self) -> List[dict]:
        """Latest snapshots: retained finished jobs first, running jobs last
        (so a running job's reading wins any worker-label collision)."""
        with self._condition:
            snapshots: List[dict] = []
            for store in self._retained.values():
                snapshots.extend(store.values())
            for job in self._jobs.values():
                snapshots.extend(job.latest_metrics.values())
            return snapshots


def _read_into_job(file, job: _ServerJob, driver: bool) -> None:
    """Pump frames from one connection into a job until EOF.

    Only the ``driver`` connection is credited.  A *peer* connection
    closing mid-job is normal — peers disconnect right after their done
    sentinel.  Only the driver connection's EOF means the run was
    abandoned, in which case the inbox is closed so the worker thread
    cannot wait forever on sentinels that will never come.
    """
    while True:
        frame = recv_frame(file)
        if frame is None:
            if driver and not job.done_event.is_set():
                job.abort()
            return
        try:
            job.feed(frame, credit=driver)
        except ChannelClosed:
            # The job was aborted (driver vanished) while this producer was
            # still sending; drain and discard the rest of the connection.
            return


def _handle_connection(connection: socket.socket, registry: _JobRegistry, served) -> None:
    file = connection.makefile("rb")
    try:
        first = recv_frame(file)
        if first is None:
            return
        if first[0] == "job":
            # Credits are tiny frames the driver may be parked on: Nagle
            # must not hold one back waiting for the previous one's ACK.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reply = _ReplySender(connection)
            if len(first) != 6 or not isinstance(first[4], RuntimeJob):
                # Driver and workers ship from one checkout, so another shape
                # is a mismatched deployment: refuse it by name rather than
                # run the job with whatever fields happen to line up.
                reply.send(
                    (
                        "error",
                        first[1] if len(first) > 1 else None,
                        None,
                        f"malformed job frame of {len(first)} field(s): expected "
                        "('job', key, spec, addresses, RuntimeJob settings, restore)",
                    )
                )
                return
            _kind, key, spec, addresses, settings, restore = first
            job = _ServerJob(key, spec, addresses, settings, reply, restore)
            registry.add(job)
            reader = threading.Thread(
                target=_read_into_job, args=(file, job, True), daemon=True
            )
            reader.start()
            _LOGGER.debug("job %s started (worker %s)", key, spec.index)
            job.done_event.wait()
            if not reply.send(job.result):
                _LOGGER.warning(
                    "job %s: driver gone before the result frame", key
                )
            registry.remove(key)
            served.set()
            _LOGGER.debug("job %s finished (worker %s)", key, spec.index)
        else:
            job = registry.wait_for(first[1])
            try:
                job.feed(first)
            except ChannelClosed:
                # The job was aborted before this peer connected; discard.
                return
            _read_into_job(file, job, False)
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def serve_listener(
    listener: socket.socket,
    once: bool = False,
    shutdown: Optional[threading.Event] = None,
    idle_timeout: Optional[float] = None,
    registry: Optional[_JobRegistry] = None,
) -> None:
    """Accept and serve connections on an already-bound listener socket.

    ``shutdown`` requests a graceful stop: the accept loop exits, the
    listener closes (no new jobs), and every in-flight job is drained to
    completion before the function returns — the SIGTERM/SIGINT path of
    ``python -m repro.runtime.worker``.  ``idle_timeout`` exits the same
    way once no connection has been active for that many seconds, so a
    launch script's spare workers reap themselves instead of lingering.

    The loop polls nothing: it sleeps in ``select`` until a connection
    arrives or one of the things it waits for happens — a handler ends (a
    ``once`` seat has served its job; the idle clock restarts) or
    ``shutdown`` is set — each of which writes a byte to a socket pair.
    """
    if registry is None:
        registry = _JobRegistry()
    served = threading.Event()
    wake_reader, wake_writer = socket.socketpair()
    wake_reader.setblocking(False)
    # Handler threads still running; each removes itself, then wakes the loop.
    active: set = set()

    def wake() -> None:
        try:
            wake_writer.send(b"\0")
        except OSError:  # the loop has already closed the pair
            pass

    def handle(connection: socket.socket) -> None:
        try:
            _handle_connection(connection, registry, served)
        finally:
            active.discard(threading.current_thread())
            wake()

    def wake_on_shutdown() -> None:
        shutdown.wait()
        wake()

    if shutdown is not None:
        threading.Thread(target=wake_on_shutdown, daemon=True).start()
    listener.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ)
    selector.register(wake_reader, selectors.EVENT_READ)
    last_activity = time.monotonic()
    try:
        while not (once and served.is_set()) and not (
            shutdown is not None and shutdown.is_set()
        ):
            timeout = None
            if idle_timeout is not None and not active:
                timeout = last_activity + idle_timeout - time.monotonic()
                if timeout <= 0:
                    break
            if selector.select(timeout):
                last_activity = time.monotonic()
            try:
                wake_reader.recv(4096)
            except BlockingIOError:
                pass
            try:
                connection, _address = listener.accept()
            except BlockingIOError:
                continue
            except OSError:  # pragma: no cover - listener closed underneath
                break
            # Some platforms hand out accepted sockets as non-blocking as
            # the listener; a seat connection must block.
            connection.setblocking(True)
            handler = threading.Thread(target=handle, args=(connection,), daemon=True)
            active.add(handler)
            handler.start()
    finally:
        selector.close()
        listener.close()
        wake_reader.close()
        wake_writer.close()
    # Graceful drain: in-flight jobs (and their result frames) finish before
    # the server returns, so a driver never loses a settled result to a
    # shutdown signal.
    for handler in list(active):
        handler.join(timeout=5.0)


def serve(
    host: str,
    port: int,
    once: bool = False,
    shutdown: Optional[threading.Event] = None,
    idle_timeout: Optional[float] = None,
    registry: Optional[_JobRegistry] = None,
) -> None:
    """Listen on ``host:port`` and run shipped worker specs until stopped.

    The entry point behind ``python -m repro.runtime.worker --listen``.
    Logs one ``listening on HOST:PORT`` line once the socket is bound so
    launch scripts can wait for readiness (the entrypoint configures a
    message-only stdout handler, so the line is byte-identical to the old
    ``print``).  Stops when ``shutdown`` is set (draining in-flight jobs
    first) or after ``idle_timeout`` seconds without activity; with
    neither, it serves until killed.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(128)
    bound_host, bound_port = listener.getsockname()[:2]
    _LOGGER.info("repro runtime worker listening on %s:%s", bound_host, bound_port)
    serve_listener(
        listener,
        once=once,
        shutdown=shutdown,
        idle_timeout=idle_timeout,
        registry=registry,
    )


def _local_worker_main(ready_queue, seat: int) -> None:
    """Driver-spawned local worker: bind an ephemeral port, report, serve one job."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(128)
    ready_queue.put((seat, listener.getsockname()[1]))
    serve_listener(listener, once=True)


# --------------------------------------------------------------------------- #
# driver session
# --------------------------------------------------------------------------- #
class _DriverSocketPutter:
    """Driver-side frame delivery, surfacing worker tracebacks on breakage."""

    def __init__(self, session: "SocketSession") -> None:
        self._session = session

    def _send(self, target: int, send, *payload) -> None:
        try:
            send(self._session.connections[target], *payload)
        except OSError as error:
            raise self._session.connection_failure(target, error) from error

    def put(self, target: int, batch) -> None:
        session = self._session
        session.take_credit(target, len(batch))
        binary = _is_columnar(session._job.specs[target])
        self._send(target, send_batch, session.job_key, batch, binary)

    def put_done(self, target: int) -> None:
        self._send(target, send_frame, ("done", self._session.job_key))


class SocketSession(TransportSession):
    """One distributed run: local spawns + placement workers over TCP."""

    name = "sockets"

    def __init__(
        self,
        job: RuntimeJob,
        placement: Optional[Placement] = None,
        restores: Optional[Dict[int, object]] = None,
    ) -> None:
        super().__init__(job)
        self.job_key = uuid.uuid4().hex
        count = len(job.specs)
        addresses: List[Optional[str]] = [
            placement.address_of(index) if placement is not None else None
            for index in range(count)
        ]
        self._processes: List = []
        #: Seat index → spawned local worker process (empty entries for
        #: placement-named remote seats).  The chaos harness kills these.
        self.seat_processes: Dict[int, object] = {}
        self.connections: List[socket.socket] = []
        self._files: List = []
        # One reader thread per connection owns all inbound frames: periodic
        # metrics frames are filed as they arrive, and the final result (or
        # EOF) parks in _result_frames / sets the matching event.  finish()
        # and connection_failure() consult those instead of reading sockets.
        self._readers: List[threading.Thread] = []
        self._result_frames: List[Optional[tuple]] = [None] * count
        self._result_events: List[threading.Event] = [
            threading.Event() for _ in range(count)
        ]
        self._clock_offsets: Dict[int, float] = {}
        # Flow control: elements sent to each seat and not yet credited back.
        # The reader threads credit and notify; the routing thread parks.
        self._window = _CREDIT_BATCHES * job.micro_batch_size
        self._outstanding: List[int] = [0] * count
        self._credit = threading.Condition()
        self._parks = 0
        #: Per seat, the most elements ever in flight at once.
        self.outstanding_high_watermark: List[int] = [0] * count
        try:
            context = preferred_context()
            ready_queue = context.Queue()
            seats = [index for index, address in enumerate(addresses) if address is None]
            for seat in seats:
                process = context.Process(
                    target=_local_worker_main,
                    args=(ready_queue, seat),
                    name=f"runtime-socket-worker-{seat}",
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
                self.seat_processes[seat] = process
            for _ in seats:
                seat, port = ready_queue.get(timeout=_SPAWN_WAIT_SECONDS)
                addresses[seat] = f"127.0.0.1:{port}"
            self.addresses = tuple(addresses)
            for address in self.addresses:
                connection = _connect(address)
                connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connections.append(connection)
                self._files.append(connection.makefile("rb"))
            settings = job.settings()
            for index, spec in enumerate(job.specs):
                restore = restores.get(index) if restores else None
                send_frame(
                    self.connections[index],
                    ("job", self.job_key, spec, self.addresses, settings, restore),
                )
            for index in range(count):
                reader = threading.Thread(
                    target=self._read_frames,
                    args=(index,),
                    name=f"runtime-socket-reader-{index}",
                    daemon=True,
                )
                reader.start()
                self._readers.append(reader)
        except Exception as error:
            self._release()
            raise WorkerStartError(f"cannot start socket workers: {error}") from error
        self._emitter = BatchingEmitter(_DriverSocketPutter(self), job.micro_batch_size)

    def _read_frames(self, index: int) -> None:
        """Reader-thread body: drain one connection until result or EOF."""
        file = self._files[index]
        result: Optional[tuple] = None
        try:
            while True:
                frame = recv_frame(file)
                if frame is None:
                    break
                kind, payload = frame[0], frame[3]
                if kind == "credit":
                    with self._credit:
                        self._outstanding[index] -= payload
                        self._credit.notify()
                    continue
                if kind in ("result", "error"):
                    result = frame
                    break
                if kind == "anchor":
                    # Handshake (wall, perf) pair — first frame a worker
                    # sends, so the offset is known before any span arrives.
                    self._clock_offsets[index] = estimate_clock_offset(payload)
                    continue
                if kind == "spans":
                    payload = shift_spans(payload, self._clock_offsets.get(index, 0.0))
                self._file(index, kind, payload)
        except (OSError, ValueError, EOFError):  # pragma: no cover - torn read
            pass
        finally:
            self._result_frames[index] = result
            # Under the credit lock, so a send parked on this seat wakes.
            with self._credit:
                self._result_events[index].set()
                self._credit.notify()

    def take_credit(self, target: int, count: int) -> None:
        """Reserve ``count`` in-flight elements on seat ``target``'s edge.

        Parks while the seat already holds uncredited elements and
        ``count`` more would pass the window.  The park ends when credits
        return; when the reader sees the seat's connection end, where a dead
        seat raises :class:`~repro.recovery.types.SeatFailure` instead of
        hanging the run; or, with ``result_timeout``, once that many seconds
        pass without room.
        """
        outstanding = self._outstanding
        ended = self._result_events[target]

        def room() -> bool:
            held = outstanding[target]
            return not held or held + count <= self._window or ended.is_set()

        with self._credit:
            if not room():
                self._parks += 1
                timeout = self._job.result_timeout
                if not self._credit.wait_for(room, timeout):
                    address = self.addresses[target]
                    raise SeatFailure(
                        target,
                        address,
                        "timeout",
                        f"worker {target} ({address}) took no input for {timeout}s",
                    )
                self._check_seat_alive(target)
            outstanding[target] += count
            if outstanding[target] > self.outstanding_high_watermark[target]:
                self.outstanding_high_watermark[target] = outstanding[target]

    @property
    def backpressure_blocks(self) -> int:
        return self._parks

    def _flight_dump(self, index: int) -> str:
        """Render the dead/stuck worker's last-known telemetry, if any."""
        if not (self._job.trace or self._job.metrics):
            return ""
        from ..obs.recorder import render_flight_dump

        return render_flight_dump(
            f"worker {index} (job {self.job_key})",
            self._live_spans[index],
            self._live_metrics[index],
        )

    def connection_failure(self, target: int, error: OSError) -> RuntimeError:
        """A send broke: wait briefly for the worker's marshalled failure.

        Returns a :class:`repro.recovery.types.SeatFailure` (a
        ``RuntimeError``) naming the seat and its placement address, so the
        recovering session can tell *which* seat to re-execute and operators
        can tell *which* host to look at.
        """
        self._result_events[target].wait(timeout=2.0)
        frame = self._result_frames[target]
        address = self.addresses[target]
        if frame is not None and frame[0] == "error":
            return SeatFailure(
                target,
                address,
                "worker_error",
                f"worker {target} ({address}) failed:\n{frame[3]}",
            )
        return SeatFailure(
            target,
            address,
            "connection_failure",
            f"worker {target} ({address}) connection failed: {error}",
        )

    def _check_seat_alive(self, target: int) -> None:
        """Raise eagerly when the reader already saw the seat die.

        Send-side failure detection alone is unreliable: a SIGKILLed local
        worker leaves its socket orphaned in FIN-WAIT-2, where the kernel
        keeps ACKing the driver's frames (until the buffer fills or the
        FIN timeout strikes) even though nothing will ever read them.  The
        reader thread, however, observes the FIN immediately — so every
        send first consults its verdict and fails the seat while recovery
        can still replay a short suffix.
        """
        if not self._result_events[target].is_set():
            return
        frame = self._result_frames[target]
        if frame is not None and frame[0] != "error":
            return  # settled normally; finish_seat() consumes the result
        address = self.addresses[target]
        if frame is None:
            reason = f"worker {target} ({address}) closed its connection mid-run"
            dump = self._flight_dump(target)
            if dump:
                reason = f"{reason}\n{dump}"
            raise SeatFailure(target, address, "connection_lost", reason)
        raise SeatFailure(
            target,
            address,
            "worker_error",
            f"worker {target} ({address}) failed:\n{frame[3]}",
        )

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        self._check_seat_alive(target)
        self._emitter.send(target, channel, tagged)

    def done(self, target: int) -> None:
        self._check_seat_alive(target)
        self._emitter.done(target)

    def finish_seat(self, index: int) -> WorkerReport:
        """Wait for one seat's result frame; its report, clock-normalized.

        Raises :class:`repro.recovery.types.SeatFailure` — carrying the
        seat index, its placement address and a cause tag — when the seat
        closed its connection without a result (a killed worker), stayed
        silent past ``result_timeout``, or marshalled a failure.  The
        flight-recorder dump of an instrumented run is appended to the
        message.
        """
        timeout = self._job.result_timeout
        arrived = self._result_events[index].wait(timeout)
        frame = self._result_frames[index] if arrived else None
        address = self.addresses[index]
        if frame is None:
            # A seat died (EOF before its result) or went silent past
            # the result timeout: dump its flight recorder — the last
            # spans and counters it shipped — before failing the seat.
            if arrived:
                cause = "connection_lost"
                reason = (
                    f"worker {index} ({address}) closed its connection "
                    "without a result"
                )
            else:
                cause = "timeout"
                reason = (
                    f"worker {index} ({address}) produced no result "
                    f"within {timeout}s"
                )
            dump = self._flight_dump(index)
            if dump:
                _LOGGER.error("%s\n%s", reason, dump)
                reason = f"{reason}\n{dump}"
            raise SeatFailure(index, address, cause, reason)
        if frame[0] == "error":
            raise SeatFailure(
                index,
                address,
                "worker_error",
                f"worker {index} ({address}) failed:\n{frame[3]}",
            )
        report = decode_report(frame[3])
        offset = self._clock_offsets.get(index)
        if offset is not None:
            # Normalize the worker's perf-counter readings onto the
            # driver clock: span timestamps shift directly; recorded
            # emit latencies were measured against driver-stamped
            # ingest clocks, so the same offset corrects them.
            report.clock_offset = offset
            if report.spans:
                report.spans = shift_spans(report.spans, offset)
            if offset and report.emit_latencies:
                report.emit_latencies = [
                    latency + offset for latency in report.emit_latencies
                ]
        return report

    def finish(self) -> List[WorkerReport]:
        self._emitter.flush()
        reports = [
            self.finish_seat(index) for index in range(len(self._job.specs))
        ]
        self._release()
        return reports

    def release(self) -> None:
        """Close every connection and reap local workers.

        The recovering session finishes seats one by one across several
        sessions, so it releases each session explicitly instead of going
        through :meth:`finish`.
        """
        self._release()

    def _release(self) -> None:
        for connection in self.connections:
            # shutdown() delivers EOF to a reader thread blocked in recv
            # (close() alone keeps the fd alive while the makefile holds a
            # reference); close() then releases the driver's half.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        for reader in self._readers:
            reader.join(timeout=5.0)
        self._readers = []
        # The readers are done with their files: closing them drops the
        # last reference to each connection's fd.
        for file in self._files:
            file.close()
        self._files = []
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
        self.connections = []
        self._processes = []

    def _cleanup(self, failed: bool) -> None:
        self._release()


class SocketTransport(Transport):
    name = "sockets"

    def start(self, job: RuntimeJob, placement: Optional[Placement] = None) -> SocketSession:
        return SocketSession(job, placement)
