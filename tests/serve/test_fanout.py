"""Fan-out contract: one publish per dispatched batch, one cache update and
one encoding per element.

Standing queries whose sinks are the same canonical node share one hub and
one cache, and an element's NDJSON body is encoded once per hub however many
TCP subscribers read it — while every line on the wire stays byte-identical
to ``json.dumps({**element_payload(e), "name": n})``.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions
from repro.dataflow import NodeSpec
from repro.dataflow.revision import Revision, RevisionKind
from repro.lineage import FALSE, TRUE, And, Not, Or, Var
from repro.relation import TPTuple
from repro.runtime.worker import Worker
from repro.serve import FanoutHub, ResultCache, ServeClient, StandingQueryService
from repro.serve import server as server_module
from repro.serve.server import element_body, element_from_payload, element_payload
from repro.stream.elements import Watermark

from tests.serve.conftest import hosted, make_gated_catalog

ON = (("Key", "Key"),)


def shared_sink_service(gate: threading.Event, **kwargs) -> StandingQueryService:
    """Two standing queries whose one-node plans share a sink node."""
    service = StandingQueryService(
        make_gated_catalog(5, gate), hub_capacity=4096, **kwargs
    )
    service.register("q0", [NodeSpec("j0", "left_outer", "a", "b", ON)])
    service.register("q1", [NodeSpec("j1", "left_outer", "a", "b", ON)])
    return service


def raw_subscribe(port: int, name: str) -> socket.socket:
    """A bare socket subscription (no snapshot) whose ack has arrived."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    sock.sendall(json.dumps({"op": "subscribe", "name": name, "snapshot": False}).encode() + b"\n")
    ack = b""
    while not ack.endswith(b"\n"):
        ack += sock.recv(1)
    assert json.loads(ack) == {"type": "ok", "op": "subscribe", "name": name}
    return sock


def read_to_close(sock: socket.socket, into: list) -> None:
    data = bytearray()
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        data += chunk
    sock.close()
    into.extend(line + b"\n" for line in bytes(data).split(b"\n")[:-1])


def test_one_publish_one_apply_one_encode_per_element(monkeypatch):
    counts = Counter()

    def counted(label, function):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(FanoutHub, "publish", counted("publish", FanoutHub.publish))
    monkeypatch.setattr(
        FanoutHub, "publish_all", counted("publish_all", FanoutHub.publish_all)
    )
    dispatch = Worker._dispatch

    def dispatched(self, elements):
        if elements and self._tap is not None:
            # The serve tap cuts a list before each watermark after its head.
            counts["pieces"] += 1 + sum(isinstance(e, Watermark) for e in elements[1:])
        return dispatch(self, elements)

    monkeypatch.setattr(Worker, "_dispatch", dispatched)
    monkeypatch.setattr(ResultCache, "apply", counted("apply", ResultCache.apply))
    monkeypatch.setattr(
        server_module, "element_body", counted("encode", server_module.element_body)
    )
    gate = threading.Event()
    service = shared_sink_service(gate)
    with hosted(service) as server:
        clients = [ServeClient("127.0.0.1", server.port) for _ in range(2)]
        received = [[], []]

        def read(index: int) -> None:
            for message in clients[index].events():
                if message["type"] != "end":
                    received[index].append(message)

        for client, name in zip(clients, ("q0", "q1")):
            assert client.subscribe(name, snapshot=False) is None
        readers = [threading.Thread(target=read, args=(index,)) for index in (0, 1)]
        for reader in readers:
            reader.start()
        gate.set()
        for reader in readers:
            reader.join(timeout=30.0)
        for client in clients:
            client.close()
        assert service.lookup("q0").hub is service.lookup("q1").hub
        assert service.lookup("q0").cache is service.lookup("q1").cache
        stats = service.stats()
        hub_metrics = service.lookup("q0").hub.metrics()
    published = len(received[0])
    assert published > 0 and len(received[1]) == published
    assert [dict(m, name=None) for m in received[0]] == [
        dict(m, name=None) for m in received[1]
    ]
    assert stats["q0"]["published"] == stats["q1"]["published"] == published
    # At most one hub call per piece of a dispatched output list (a piece
    # holding only a watermark the min-merge swallows makes none), each a
    # whole batch; the serve path makes no single-element publish.
    batches = counts.pop("publish_all")
    assert 0 < batches <= counts.pop("pieces")
    assert batches == hub_metrics["publish_batches"] < published
    assert counts == {"apply": published, "encode": published}


@pytest.mark.parametrize(
    "early, shapes",
    [
        # Early emission publishes every kind, all provisional ...
        (True, {(kind, True) for kind in RevisionKind}),
        # ... and without it every revision is a settled emit.
        (False, {(RevisionKind.EMIT, False)}),
    ],
)
def test_tcp_lines_are_byte_identical_to_the_payload_encoding(early, shapes):
    gate = threading.Event()
    service = shared_sink_service(gate, config=ExecutionOptions(early_emit=early))
    with hosted(service) as server:
        sockets = [raw_subscribe(server.port, name) for name in ("q0", "q1")]
        # An in-process subscriber of q0 sees the same element sequence.
        local = service.subscribe("q0", snapshot=False)
        elements: list = []
        lines = [[], []]
        threads = [
            threading.Thread(target=lambda: elements.extend(local)),
            *(
                threading.Thread(target=read_to_close, args=(sock, into))
                for sock, into in zip(sockets, lines)
            ),
        ]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
        local.close()
    assert {(e.kind, e.provisional) for e in elements if isinstance(e, Revision)} == shapes
    assert elements[-1] == Watermark(float("inf"))
    for name, got in zip(("q0", "q1"), lines):
        want = [
            (json.dumps({**element_payload(e), "name": name}) + "\n").encode()
            for e in elements
        ]
        end = (json.dumps({"type": "end", "name": name, "reason": "settled"}) + "\n").encode()
        assert got == want + [end]


@pytest.mark.parametrize("provisional", (False, True))
@pytest.mark.parametrize("kind", tuple(RevisionKind))
def test_element_body_plus_name_suffix_is_the_payload_line(kind, provisional):
    from tests.serve.test_cache import output_tuple

    revision = Revision(kind, output_tuple(7), provisional=provisional)
    for element in (revision, Watermark(3), Watermark(2.5), Watermark(float("inf"))):
        for name in ("q0", 'odd "name" é'):
            suffix = f', "name": {json.dumps(name)}}}'.encode()
            assert element_body(element) + suffix == json.dumps(
                {**element_payload(element), "name": name}
            ).encode()


TRICKY_TEXT = ('"', "\\", "\n", "\x00", "\x1f", "é", "☃", "𝄞", 'a "q" \\ b')
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY_TEXT))
fact_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from((-0.0, 0.1, 1e300, -1e-300)),
    texts,
)
lineages = st.recursive(
    st.one_of(st.builds(Var, st.text(min_size=1, max_size=6)), st.just(TRUE), st.just(FALSE)),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(children, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=8,
)
tp_tuples = st.builds(
    lambda fact, lineage, start, width, probability: TPTuple.from_bounds(
        fact, lineage, start, start + width, probability
    ),
    st.lists(fact_values, min_size=1, max_size=4).map(tuple),
    lineages,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=1, max_value=2**20),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)
hub_elements = st.one_of(
    st.builds(Revision, st.sampled_from(tuple(RevisionKind)), tp_tuples, st.booleans()),
    st.builds(
        Watermark,
        st.one_of(
            st.integers(),
            st.floats(allow_nan=False),
            st.sampled_from((float("inf"), float("-inf"), -0.0)),
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(hub_elements, texts)
def test_every_element_shape_encodes_to_the_payload_line_and_decodes_back(element, name):
    line = element_body(element) + f', "name": {json.dumps(name)}}}'.encode()
    assert line == json.dumps({**element_payload(element), "name": name}).encode()
    assert element_from_payload(json.loads(line)) == element


def test_traced_queries_share_one_hub_and_report_per_query():
    gate = threading.Event()
    config = ExecutionOptions(early_emit=True, trace=True, trace_sample_rate=1.0)
    service = shared_sink_service(gate, config=config)
    q0 = [service.subscribe("q0"), service.subscribe("q0")]
    q1 = service.subscribe("q1")
    hub = service.lookup("q0").hub
    assert hub is service.lookup("q1").hub
    lags = service.metrics()
    assert len(lags["q0"]["cursor_lags"]) == 2 and len(lags["q1"]["cursor_lags"]) == 1
    assert lags["q0"]["hub"]["subscribers"] == 2 and lags["q1"]["hub"]["subscribers"] == 1
    gate.set()
    drained = [list(subscription) for subscription in (*q0, q1)]
    assert drained[0] == drained[1] == drained[2] and drained[0]
    metrics = service.metrics()
    assert metrics["q0"]["hub"]["elements_read"] == 2 * hub.published
    assert metrics["q1"]["hub"]["elements_read"] == hub.published
    spans = service.trace_spans()
    publishes = [span for span in spans if span["name"] == "hub_publish"]
    assert len(publishes) == hub.published  # one hub, visited once
    assert len({span["span"] for span in spans}) == len(spans)
    service.shutdown()
