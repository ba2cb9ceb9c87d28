"""The asyncio front-end: standing queries over newline-delimited JSON/TCP.

``python -m repro.serve --listen HOST:PORT`` serves a
:class:`~repro.serve.registry.StandingQueryService` to TCP clients.  Each
request and response is one JSON object per line.  Requests:

* ``{"op": "register", "name": N, "nodes": [...], "replace": false}`` —
  node objects mirror :class:`~repro.dataflow.NodeSpec`
  (``name``/``kind``/``left``/``right``/``on``/``partitions``);
* ``{"op": "subscribe", "name": N, "snapshot": true}`` — takes over the
  connection: the server acks, optionally sends the materialized snapshot,
  then streams ``revision``/``watermark`` lines until ``end``.  A
  ``{"op": "detach"}`` line (or closing the connection) detaches;
* ``{"op": "snapshot", "name": N}`` — one consistent materialized snapshot;
* ``{"op": "explain", "name": N}`` — the physical plan with ``shared=``
  markers;
* ``{"op": "list"}`` — registered standing-query names;
* ``{"op": "stats"}`` — one ``stats`` reply: per-query serving counters
  (:meth:`~repro.serve.registry.StandingQueryService.stats`) plus live
  telemetry (hub occupancy, per-subscriber cursor lags, worker metrics —
  :meth:`~repro.serve.registry.StandingQueryService.metrics`);
* ``{"op": "trace"}`` — one ``trace`` reply: every span the service holds
  (worker/driver timelines plus hub publish/cursor spans) when the server
  runs with tracing enabled (``--trace``); repeated readings may overlap —
  span ids are unique, so an aggregator deduplicates them;
* ``{"op": "watch", "interval": S}`` — takes over the connection: the
  server acks, then emits one ``stats`` line every ``interval`` seconds
  until a ``{"op": "detach"}`` line arrives or the client disconnects.

TP tuples travel in the compact primitive encoding of
:mod:`repro.parallel.serialize` (``[fact, lineage, start, end, p]``), so
the NDJSON protocol and the runtime's socket frames share one tuple wire
shape.  Watermark values may be ``Infinity`` — Python's ``json`` emits and
accepts it (the protocol is NDJSON between Python peers, not strict JSON).

The serving runtime is threaded; the bridge into asyncio is a wake-up, not
a thread.  A subscription's pump takes whatever its hub ring holds (up to
``DELIVERY_BATCH`` elements) without blocking and hands the batch to the
socket in one write and one ``drain()`` — TCP backpressure is what makes a
slow client's cursor lag and the hub's policy fire.  An element is encoded
once per hub, not once per pump: the first pump to reach a ring entry
stores its line body (:func:`element_body`, everything but the closing
``, "name": …}``) on the entry, and every pump appends its own name suffix
to the shared bytes.  Bodies are encoded through one C encoder built at
import — the one ``json.dumps`` would build per call, so the bytes are the
same.  When the ring is empty the read arms a one-shot waker
under the hub lock, and the next ``publish``/``close``/detach schedules the
pump again through ``loop.call_soon_threadsafe``; no pool thread is parked
per subscriber.

:class:`ServeClient` reads the socket into its own buffer and decodes every
complete line it holds with one ``json.loads``; it never blocks while a
complete line is in hand.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
from collections import deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

from ..dataflow.graph import NodeSpec
from ..dataflow.revision import Revision, RevisionKind
from ..parallel.serialize import decode_tuple, encode_tuple
from ..relation import TPTuple
from ..stream.elements import Watermark
from .hub import DELIVERY_BATCH, END_OF_STREAM, SlowSubscriberDisconnected
from .registry import ServeError, ServingSubscription, StandingQueryService

_LOGGER = logging.getLogger(__name__)


# --------------------------------------------------------------------------- #
# wire helpers (shared by server and client)
# --------------------------------------------------------------------------- #
def node_payload(spec: NodeSpec) -> dict:
    """A :class:`NodeSpec` as a JSON-ready object."""
    return {
        "name": spec.name,
        "kind": spec.kind,
        "left": spec.left,
        "right": spec.right,
        "on": [list(pair) for pair in spec.on],
        "partitions": spec.partitions,
    }


def node_from_payload(payload: dict) -> NodeSpec:
    """Rebuild a :class:`NodeSpec` from its wire object."""
    return NodeSpec(
        name=payload["name"],
        kind=payload["kind"],
        left=payload["left"],
        right=payload["right"],
        on=tuple(tuple(pair) for pair in payload.get("on", ())),
        partitions=int(payload.get("partitions", 1)),
    )


def element_payload(element: Any) -> dict:
    """One hub element (revision or watermark) as a JSON-ready object."""
    if isinstance(element, Watermark):
        return {"type": "watermark", "value": element.value}
    if isinstance(element, Revision):
        return {
            "type": "revision",
            "kind": element.kind.value,
            "provisional": element.provisional,
            "tuple": encode_tuple(element.tuple),
        }
    raise TypeError(f"cannot encode hub element {element!r}")


#: The opening of a revision line up to its tuple, by ``(kind, provisional)``.
_REVISION_OPENINGS = {
    (kind, provisional): (
        f'{{"type": "revision", "kind": {json.dumps(kind.value)}, '
        f'"provisional": {json.dumps(provisional)}, "tuple": '
    )
    for kind in RevisionKind
    for provisional in (False, True)
}

_KINDS = {kind.value: kind for kind in RevisionKind}

#: The C encoder ``json.dumps`` builds afresh on every call — ASCII
#: escaping, ``", "`` / ``": "`` separators, ``Infinity`` allowed — built
#: once.  Tuple codes and watermark values hold no containers that could
#: form a cycle, so it skips the circular-reference bookkeeping.
_ENCODER = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ": ", ", ", False, False, True,
)


def element_body(element: Any) -> bytes:
    """``json.dumps(element_payload(element))`` without its closing ``}``.

    A subscriber's line is this body plus ``, "name": <name>}`` and a
    newline — byte for byte ``json.dumps({**element_payload(element),
    "name": name})`` — so one body serves every subscription of a hub.
    """
    if isinstance(element, Revision):
        opening = _REVISION_OPENINGS[element.kind, element.provisional]
        return (opening + "".join(_ENCODER(encode_tuple(element.tuple), 0))).encode()
    if isinstance(element, Watermark):
        return ('{"type": "watermark", "value": ' + "".join(_ENCODER(element.value, 0))).encode()
    raise TypeError(f"cannot encode hub element {element!r}")


def element_from_payload(payload: dict) -> Any:
    """Rebuild a hub element from its wire object."""
    if payload["type"] == "watermark":
        return Watermark(payload["value"])
    if payload["type"] == "revision":
        kind = _KINDS.get(payload["kind"])
        if kind is None:
            raise ValueError(f"unknown revision kind {payload['kind']!r}")
        return Revision(
            kind,
            decode_tuple(payload["tuple"]),
            provisional=bool(payload.get("provisional", False)),
        )
    raise ValueError(f"unknown element payload type {payload['type']!r}")


def tuples_payload(tuples: Sequence[TPTuple]) -> List[tuple]:
    return [encode_tuple(tp_tuple) for tp_tuple in tuples]


def tuples_from_payload(codes: Sequence) -> List[TPTuple]:
    return [decode_tuple(code) for code in codes]


# --------------------------------------------------------------------------- #
# server
# --------------------------------------------------------------------------- #
class ServeServer:
    """NDJSON-over-TCP access to one :class:`StandingQueryService`."""

    def __init__(
        self, service: StandingQueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def service(self) -> StandingQueryService:
        return self._service

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self._port

    async def start(self) -> None:
        """Bind and start accepting; prints one readiness line."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        bound = self._server.sockets[0].getsockname()
        self._host, self._port = bound[0], bound[1]
        # The message bytes are a readiness needle clients grep for; the
        # entrypoint's message-only stdout handler keeps them unchanged.
        _LOGGER.info("repro serve listening on %s:%s", self._host, self._port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    await self._send(
                        writer, {"type": "error", "message": f"bad JSON: {error}"}
                    )
                    continue
                try:
                    finished = await self._dispatch(request, reader, writer)
                except (ServeError, ValueError, KeyError, TypeError) as error:
                    await self._send(
                        writer, {"type": "error", "message": str(error)}
                    )
                    continue
                if finished:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(
        self,
        request: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        op = request.get("op")
        if op == "register":
            nodes = [node_from_payload(node) for node in request["nodes"]]
            self._service.register(
                request["name"], nodes, replace=bool(request.get("replace", False))
            )
            await self._send(
                writer, {"type": "ok", "op": "register", "name": request["name"]}
            )
            return False
        if op == "list":
            await self._send(
                writer, {"type": "ok", "op": "list", "queries": self._service.names()}
            )
            return False
        if op == "snapshot":
            loop = asyncio.get_running_loop()
            tuples = await loop.run_in_executor(
                None, self._service.snapshot, request["name"]
            )
            await self._send(
                writer,
                {
                    "type": "snapshot",
                    "name": request["name"],
                    "tuples": tuples_payload(tuples),
                },
            )
            return False
        if op == "explain":
            plan = self._service.explain(request["name"])
            await self._send(
                writer,
                {"type": "ok", "op": "explain", "name": request["name"], "plan": plan},
            )
            return False
        if op == "stats":
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self._stats_payload)
            payload["type"] = "stats"
            await self._send(writer, payload)
            return False
        if op == "trace":
            loop = asyncio.get_running_loop()
            spans = await loop.run_in_executor(None, self._service.trace_spans)
            await self._send(writer, {"type": "trace", "spans": spans})
            return False
        if op == "watch":
            await self._watch_stats(request, reader, writer)
            return True  # the watch consumed the connection
        if op == "subscribe":
            await self._stream(request, reader, writer)
            return True  # the subscription consumed the connection
        if op == "detach":
            raise ServeError("no active subscription on this connection")
        raise ServeError(f"unknown op {op!r}")

    def _stats_payload(self) -> Dict[str, Any]:
        return {
            "queries": self._service.stats(),
            "metrics": self._service.metrics(),
        }

    async def _watch_stats(
        self,
        request: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        interval = max(float(request.get("interval", 1.0)), 0.05)
        watcher = asyncio.ensure_future(_read_until_detach(reader))
        try:
            await self._send(
                writer, {"type": "ok", "op": "watch", "interval": interval}
            )
            while not watcher.done():
                payload = await loop.run_in_executor(None, self._stats_payload)
                payload["type"] = "stats"
                await self._send(writer, payload)
                await asyncio.wait((watcher,), timeout=interval)
            await self._send(writer, {"type": "end", "op": "watch", "reason": "detached"})
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            _LOGGER.debug("watch client vanished mid-stream")
        finally:
            watcher.cancel()

    async def _stream(
        self,
        request: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        name = request["name"]
        want_snapshot = bool(request.get("snapshot", True))
        subscription: ServingSubscription = await loop.run_in_executor(
            None, lambda: self._service.subscribe(name, snapshot=want_snapshot)
        )
        await self._send(writer, {"type": "ok", "op": "subscribe", "name": name})
        if subscription.snapshot is not None:
            await self._send(
                writer,
                {
                    "type": "snapshot",
                    "name": name,
                    "tuples": tuples_payload(subscription.snapshot),
                },
            )
        # Every line is a shared body (encoded once per hub) plus this.
        suffix = f', "name": {json.dumps(name)}}}\n'.encode()
        watcher = asyncio.ensure_future(_read_until_detach(reader))
        # Closing the subscription fires the pump's waker and makes its next
        # read raise ValueError, which ends the stream cleanly.
        watcher.add_done_callback(lambda _watcher: subscription.close())
        wake = asyncio.Event()

        def waker() -> None:
            # Runs on a publisher thread, under the hub lock.
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:
                pass  # the loop is closed: no pump is left to wake

        try:
            while True:
                try:
                    batch = subscription.read_encoded(
                        DELIVERY_BATCH, element_body, waker=waker
                    )
                except ValueError:
                    # Detached (client asked, or the connection vanished).
                    await self._send(writer, {"type": "end", "name": name, "reason": "detached"})
                    return
                except SlowSubscriberDisconnected as error:
                    await self._send(
                        writer,
                        {"type": "end", "name": name, "reason": "disconnected",
                         "message": str(error)},
                    )
                    return
                if batch is END_OF_STREAM:
                    await self._send(writer, {"type": "end", "name": name, "reason": "settled"})
                    return
                if not batch:
                    await wake.wait()
                    wake.clear()
                    continue
                writer.write(suffix.join(batch) + suffix)
                await writer.drain()
                # drain() returns without suspending while the socket keeps
                # up; yield anyway so a pump whose ring never runs dry cannot
                # starve the other connections on this loop.
                await asyncio.sleep(0)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            watcher.cancel()
            subscription.close()


async def _read_until_detach(reader: asyncio.StreamReader) -> None:
    """Consume a streaming connection's input until a ``detach`` line or EOF."""
    while True:
        line = await reader.readline()
        if not line:
            return
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            continue
        if request.get("op") == "detach":
            return


# --------------------------------------------------------------------------- #
# blocking client
# --------------------------------------------------------------------------- #
#: Most bytes one socket read asks for.
_READ_SIZE = 1 << 16


class ServeClient:
    """A small blocking NDJSON client (tests, benchmarks, the CLI).

    Responses are decoded a chunk at a time: every complete line the
    receive buffer holds goes through one ``json.loads``, and the messages
    wait in a queue; a partial trailing line stays buffered for the next
    read.  ``recv`` reads the socket only when that queue is empty.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._adopt(socket.create_connection((host, port), timeout=timeout))

    @classmethod
    def from_socket(cls, sock: socket.socket) -> "ServeClient":
        """A client over an already connected socket (which it then owns)."""
        client = cls.__new__(cls)
        client._adopt(sock)
        return client

    def _adopt(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self._messages: Deque[dict] = deque()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, payload: dict) -> None:
        self._sock.sendall(json.dumps(payload).encode() + b"\n")

    def recv(self) -> Optional[dict]:
        """One response line (``None`` on EOF); raises on ``error`` lines."""
        if not self._messages and not self._fill():
            return None
        response = self._messages.popleft()
        if response.get("type") == "error":
            raise ServeError(response.get("message", "server error"))
        return response

    def _fill(self) -> bool:
        """Read until the buffer holds a complete line, then decode them all.

        Returns ``False`` on EOF with nothing left to decode; an unterminated
        last line before EOF is decoded as a line of its own.
        """
        buffer = self._buffer  # holds no newline between fills
        end = -1
        while end < 0:
            data = self._sock.recv(_READ_SIZE)
            if not data:
                if not buffer:
                    return False
                end = len(buffer)
                break
            newline = data.rfind(b"\n")
            if newline >= 0:
                end = len(buffer) + newline
            buffer += data
        chunk = buffer[:end].replace(b"\n", b",")
        del buffer[: end + 1]
        self._messages.extend(json.loads(b"[" + chunk + b"]"))
        return True

    def request(self, payload: dict) -> dict:
        self.send(payload)
        response = self.recv()
        if response is None:
            raise ServeError("server closed the connection")
        return response

    # convenience wrappers ---------------------------------------------- #
    def register(
        self, name: str, nodes: Sequence[NodeSpec], replace: bool = False
    ) -> dict:
        return self.request(
            {
                "op": "register",
                "name": name,
                "nodes": [node_payload(spec) for spec in nodes],
                "replace": replace,
            }
        )

    def list_queries(self) -> List[str]:
        return self.request({"op": "list"})["queries"]

    def snapshot(self, name: str) -> List[TPTuple]:
        return tuples_from_payload(self.request({"op": "snapshot", "name": name})["tuples"])

    def explain(self, name: str) -> str:
        return self.request({"op": "explain", "name": name})["plan"]

    def stats(self) -> dict:
        """One serving-stats reading: per-query counters + live telemetry."""
        return self.request({"op": "stats"})

    def trace(self) -> List[dict]:
        """Every span the service currently holds (live mid-run reading).

        Feed repeated readings into one :class:`repro.obs.TraceAggregator`
        — spans carry unique ids, so overlap between readings is safe.
        """
        return self.request({"op": "trace"})["spans"]

    def watch(self, interval: float = 1.0) -> Iterator[dict]:
        """Yield periodic ``stats`` payloads until :meth:`detach` or EOF.

        After this call the connection belongs to the watch; send
        ``detach`` (from another thread, or between yields) to stop, then
        drain until the generator ends.
        """
        response = self.request({"op": "watch", "interval": interval})
        assert response.get("op") == "watch", response
        while True:
            message = self.recv()
            if message is None:
                return
            if message.get("type") == "end":
                return
            yield message

    def subscribe(self, name: str, snapshot: bool = True) -> Optional[List[TPTuple]]:
        """Start a subscription on this connection; returns the snapshot.

        After this call the connection belongs to the stream: iterate
        :meth:`events` until the ``end`` message.
        """
        response = self.request({"op": "subscribe", "name": name, "snapshot": snapshot})
        assert response.get("op") == "subscribe", response
        if not snapshot:
            return None
        snapshot_message = self.recv()
        if snapshot_message is None:
            raise ServeError("server closed the connection before the snapshot")
        return tuples_from_payload(snapshot_message["tuples"])

    def events(self) -> Iterator[dict]:
        """Stream messages after :meth:`subscribe`, ending on ``end``/EOF."""
        while True:
            message = self.recv()
            if message is None:
                return
            yield message
            if message.get("type") == "end":
                return

    def detach(self) -> None:
        self.send({"op": "detach"})
