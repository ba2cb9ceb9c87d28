"""End-to-end NDJSON/TCP serving: register, subscribe, snapshot, detach."""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

import pytest

from repro.dataflow import NodeSpec
from repro.dataflow.revision import Revision, RevisionKind
from repro.relation import TPTuple
from repro.serve import ResultCache, ServeClient, ServeError, StandingQueryService
from repro.serve.server import element_from_payload, node_from_payload, node_payload

from tests.serve.conftest import hosted, make_gated_catalog, make_stream_catalog

ON = (("Key", "Key"),)
JOIN = NodeSpec("j1", "left_outer", "a", "b", ON)


@pytest.fixture()
def serving():
    """A StandingQueryService behind a live TCP server on a loopback port."""
    with hosted(StandingQueryService(make_stream_catalog(seed=5))) as server:
        yield server


def test_node_payload_roundtrip():
    spec = NodeSpec("j2", "anti", "a", "b", (("Key", "Key"), ("Serial", "Serial")), partitions=3)
    assert node_from_payload(node_payload(spec)) == spec


def test_register_list_explain_over_tcp(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        response = client.register("q1", [JOIN])
        assert response["type"] == "ok"
        assert client.list_queries() == ["q1"]
        assert "dataflow" in client.explain("q1")
        with pytest.raises(ServeError, match="already registered"):
            client.register("q1", [JOIN])
        with pytest.raises(ServeError, match="unknown op"):
            client.request({"op": "frobnicate"})


def test_subscribe_streams_revisions_until_settled(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
        snapshot = client.subscribe("q1")
        assert snapshot == []  # idle query: nothing materialized yet
        cache = ResultCache()
        end = None
        for message in client.events():
            if message["type"] == "end":
                end = message
                break
            cache.apply(element_from_payload(message))
        assert end is not None and end["reason"] == "settled"
        assert cache.last_watermark == float("inf")
        assert len(cache) > 0
        # The decoded net state equals the server-side materialized cache.
        server_state = serving.service.snapshot("q1")
        assert sorted(cache.snapshot(), key=TPTuple.key) == sorted(
            server_state, key=TPTuple.key
        )


def test_late_joiner_snapshot_over_tcp(serving):
    with ServeClient("127.0.0.1", serving.port) as register_client:
        register_client.register("q1", [JOIN])

    with ServeClient("127.0.0.1", serving.port) as from_start:
        assert from_start.subscribe("q1") == []
        from_start_cache = ResultCache()
        revisions_seen = 0
        late_cache = None
        for message in from_start.events():
            if message["type"] == "end":
                break
            from_start_cache.apply(element_from_payload(message))
            if message["type"] == "revision":
                revisions_seen += 1
            if revisions_seen == 10 and late_cache is None:
                # A second connection joins mid-stream: its snapshot must
                # reflect everything published so far, atomically.
                with ServeClient("127.0.0.1", serving.port) as late:
                    late_cache = ResultCache()
                    for tp_tuple in late.subscribe("q1"):
                        late_cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
                    for late_message in late.events():
                        if late_message["type"] == "end":
                            break
                        late_cache.apply(element_from_payload(late_message))
    assert late_cache is not None
    assert sorted(late_cache.snapshot(), key=TPTuple.key) == sorted(
        from_start_cache.snapshot(), key=TPTuple.key
    )


def test_detach_ends_the_stream_without_settling(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
        client.subscribe("q1")
        client.detach()
        reasons = [m["reason"] for m in client.events() if m["type"] == "end"]
        assert reasons == ["detached"] or reasons == ["settled"]
    # The subscriber is gone either way; the service winds the group down.
    record = serving.service.lookup("q1")
    assert record.group.finished.wait(timeout=10.0)


def test_snapshot_op_on_a_fresh_connection(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
        with ServeClient("127.0.0.1", serving.port) as subscriber:
            subscriber.subscribe("q1")
            for message in subscriber.events():
                if message["type"] == "end":
                    break
        tuples = client.snapshot("q1")
        assert len(tuples) > 0
        assert all(isinstance(tp_tuple, TPTuple) for tp_tuple in tuples)


def test_error_responses_do_not_kill_the_connection(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        with pytest.raises(ServeError, match="unknown standing query"):
            client.request({"op": "snapshot", "name": "ghost"})
        with pytest.raises(ServeError, match="no active subscription"):
            client.request({"op": "detach"})
        # The connection is still usable after errors.
        assert client.list_queries() == []


def test_idle_subscribers_do_not_starve_control_requests():
    # No subscriber may hold a default-executor thread while it waits for
    # elements: ``stats`` and ``subscribe`` run in that pool, and with more
    # idle subscribers than it has threads they would queue behind parked
    # reads for tens to hundreds of milliseconds.
    pool_threads = min(32, (os.cpu_count() or 1) + 4)
    gate = threading.Event()  # released only on the way out: subscribers stay idle
    service = StandingQueryService(make_gated_catalog(5, gate))
    with hosted(service) as server, contextlib.ExitStack() as clients:
        def connect() -> ServeClient:
            return clients.enter_context(ServeClient("127.0.0.1", server.port))

        control = connect()
        control.register("q1", [JOIN])
        for _ in range(pool_threads + 2):
            assert connect().subscribe("q1") == []

        def typical(request, attempts=5) -> float:
            # The median of a few attempts: one scheduling hiccup on a
            # loaded host must not fail the test, while a queue behind
            # parked reads slows most of them.
            timings = []
            for _ in range(attempts):
                started = time.perf_counter()
                request()
                timings.append(time.perf_counter() - started)
            return statistics.median(timings)

        assert typical(control.stats) < 0.050
        assert typical(lambda: connect().subscribe("q1")) < 0.050
        hub = control.stats()["metrics"]["q1"]["hub"]
        assert hub["subscribers"] == pool_threads + 2 + 5  # + the timed subscribes
        assert hub["elements_read"] == 0
        gate.set()
