"""Tracing end to end: stitched timelines on every transport, Chrome
export, explain-tuple provenance, flight dumps, the serve trace verb."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.stream import StreamQuery
from tests.dataflow.conftest import make_stream_catalog

ON = (("Key", "Key"),)
TREE = [
    NodeSpec("n1", "left_outer", "a", "b", ON),
    NodeSpec("n2", "anti", "n1", "c", ON),
]
TRANSPORTS = ("inline", "threads", "processes", "sockets")

TRACED = ExecutionOptions(early_emit=True, trace=True, trace_sample_rate=1.0)


def _traced_run(backend: str, seed: int = 11):
    catalog, *_ = make_stream_catalog(seed, sizes=(25, 25, 20), disorder=4)
    query = DataflowQuery(catalog, TREE, TRACED)
    result = query.run(backend=backend, merge_seed=seed)
    return query, result


@pytest.mark.parametrize("backend", TRANSPORTS)
def test_stitched_timelines_cover_source_to_sink(backend):
    query, result = _traced_run(backend)
    aggregator = result.trace()
    assert aggregator is not None
    timelines = aggregator.timelines()
    assert timelines
    names = set()
    emitted_traces = 0
    for spans in timelines.values():
        # Every timeline is rooted in exactly one driver-recorded source
        # span.  (Queue-wait spans start at the driver's ingest stamp, which
        # precedes the source record, so root-ness is causal, not temporal.)
        roots = [
            span
            for span in spans
            if span["name"] == "source" and span["worker"] == "driver"
        ]
        assert len(roots) == 1
        span_names = {span["name"] for span in spans}
        names |= span_names
        if "emit" in span_names:
            emitted_traces += 1
        # Child spans point back into their own trace.
        ids = {span["span"] for span in spans}
        for span in spans[1:]:
            parent = span.get("parent")
            assert parent is None or parent in ids
    # Source → operate → emit all appear across the run; queue-wait spans
    # exist wherever a channel does (inline dispatch is synchronous).
    expected = {"source", "operate", "emit"}
    if backend != "inline":
        expected.add("queue_wait")
    assert expected <= names
    # Early-emitting revision joins push sampled elements through to the
    # sink synchronously, so a healthy share of timelines reach an emit.
    assert emitted_traces > 0
    # The query-level accessor serves the same aggregator.
    assert query.trace() is not None
    assert len(query.trace()) == len(aggregator)


def test_tracing_is_off_by_default_and_returns_none():
    catalog, *_ = make_stream_catalog(11, sizes=(20, 20, 15), disorder=4)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=True))
    result = query.run(backend="inline", merge_seed=11)
    assert query.trace() is None
    assert result.trace() is None
    assert result.trace_spans == []


def test_traced_output_matches_untraced_output():
    catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
    plain = DataflowQuery(
        catalog, TREE, ExecutionOptions(early_emit=True)
    ).run(backend="inline", merge_seed=11)
    catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
    traced = DataflowQuery(catalog, TREE, TRACED).run(
        backend="inline", merge_seed=11
    )
    canonical = lambda result: sorted(  # noqa: E731
        (repr(tuple(t.fact)), t.start, t.end) for t in result.relation
    )
    assert canonical(plain) == canonical(traced)


def test_chrome_trace_export_from_a_traced_run(tmp_path):
    _query, result = _traced_run("threads")
    path = tmp_path / "trace.json"
    result.trace().write_chrome_trace(str(path))
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert complete
    lanes = {event["tid"] for event in complete}
    assert len(lanes) >= 3  # driver + the two node workers
    for event in complete:
        assert event["ts"] >= 0.0 and event["dur"] > 0.0


def test_explain_tuple_walks_provenance_for_a_settled_tuple():
    _query, result = _traced_run("inline")
    tuples = list(result.relation)
    assert tuples
    report = result.explain_tuple(tuple(tuples[0].fact))
    assert report.startswith("tuple ")
    assert "lineage:" in report
    # Rate 1.0 traced every element, so provenance must be attributable.
    assert "contributing timeline(s)" in report
    assert "source" in report
    # A key that matches nothing says so instead of raising.
    assert "no settled tuple matches" in result.explain_tuple("zz-no-such")


def test_stream_query_traces_across_partitions():
    catalog, *_ = make_stream_catalog(13, sizes=(30, 30, 10), disorder=3)
    query = StreamQuery(
        catalog,
        "left_outer",
        "a",
        "b",
        ON,
        config=ExecutionOptions(
            partitions=2, transport="threads", trace=True, trace_sample_rate=1.0
        ),
    )
    result = query.run(merge_seed=13)
    aggregator = result.trace()
    assert aggregator is not None
    names = {span["name"] for span in aggregator.spans()}
    # Continuous shards settle at watermarks (untraced elements), so the
    # guaranteed per-element chain here is source → queue wait → operate.
    assert {"source", "queue_wait", "operate"} <= names
    workers = {span["worker"] for span in aggregator.spans()}
    assert {"driver", "0", "1"} <= workers
    assert query.trace() is not None
    assert isinstance(result.explain_tuple(object()), str)


def test_explain_marks_traced_plans():
    from repro.engine import Engine

    catalog, *_ = make_stream_catalog(seed=5)
    sql = "SELECT * FROM STREAM a TP LEFT OUTER JOIN STREAM b ON a.Key = b.Key"
    traced = Engine(
        options=ExecutionOptions(trace=True, trace_sample_rate=0.05)
    )
    plain = Engine(options=ExecutionOptions())
    for engine in (traced, plain):
        for name in ("a", "b"):
            engine.register_stream(name, catalog.lookup_stream(name))
    assert "[traced rate=0.05]" in traced.explain_sql(sql)
    assert "traced" not in plain.explain_sql(sql)


# --------------------------------------------------------------------------- #
# socket transport: clock anchoring + flight-recorder dump on a dead seat
# --------------------------------------------------------------------------- #
def test_socket_reports_carry_clock_offsets():
    from repro.datasets import ReplayConfig, stream_def
    from repro.engine import Catalog
    from tests.conftest import make_random_relations, run_shard_job

    left, right, _theta = make_random_relations(seed=19, left_size=40, right_size=40)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=3, seed=19)))
    catalog.register_stream("r", stream_def(right, ReplayConfig(disorder=3, seed=20)))
    reports, events, _blocks, ran, *_ = run_shard_job(
        "sockets",
        catalog,
        ExecutionOptions(trace=True, trace_sample_rate=1.0),
    )
    assert ran == "sockets" and events > 0
    for report in reports:
        # Local spawns: the offset is a measured (tiny) skew, not None —
        # proof the anchor handshake ran and was applied.
        assert report.clock_offset is not None
        assert abs(report.clock_offset) < 5.0
        assert report.spans


def test_killed_socket_worker_yields_a_flight_dump():
    from repro.datasets import ReplayConfig, stream_def
    from repro.engine import Catalog
    from repro.relation import Schema, TPRelation
    from repro.runtime.sockets import SocketSession
    from repro.runtime.transport import RuntimeJob
    from repro.stream.elements import LEFT, StreamEvent, Tagged
    from tests.conftest import shard_specs

    relation = TPRelation.from_rows(
        Schema.of("Key", "Serial"),
        [(f"k{i % 3}", f"a{i}", f"a{i}", i, i + 4, 0.5) for i in range(12)],
    )
    catalog = Catalog()
    for name in ("l", "r"):
        catalog.register_stream(name, stream_def(relation, ReplayConfig()))
    _graph, (spec,), _stages = shard_specs(catalog)
    job = RuntimeJob(
        (spec,),
        micro_batch_size=1,
        metrics=True,
        metrics_interval=0.05,
        trace=True,
    )
    session = SocketSession(job)
    try:
        tuples = list(relation)
        # Every element traced: the worker records spans and ships them on
        # the periodic frames, so the driver holds history when the seat dies.
        for sequence, tp_tuple in enumerate(tuples[:6]):
            event = StreamEvent(tp_tuple, sequence=sequence)
            session.send(
                0, None, Tagged(LEFT, event, None, (sequence + 1, "driver:0"))
            )
        time.sleep(0.2)  # > metrics_interval: the next batch flushes spans
        for sequence, tp_tuple in enumerate(tuples[6:], start=6):
            event = StreamEvent(tp_tuple, sequence=sequence)
            session.send(
                0, None, Tagged(LEFT, event, None, (sequence + 1, "driver:0"))
            )
        deadline = time.monotonic() + 5.0
        while not session.trace_spans() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert session.trace_spans(), "no periodic span frame ever arrived"
        session._processes[0].kill()
        with pytest.raises(RuntimeError) as excinfo:
            session.finish()
        message = str(excinfo.value)
        # The first line names the seat and where it lived ...
        first_line = message.splitlines()[0]
        assert first_line.startswith("worker 0 (127.0.0.1:")
        assert first_line.endswith("closed its connection without a result")
        # ... and the flight recorder's last-known spans ride along.
        assert "flight recorder dump for worker 0" in message
        assert "span(s) retained" in message
        assert "operate" in message
    finally:
        session._cleanup(failed=True)


# --------------------------------------------------------------------------- #
# serve front end: the trace NDJSON verb and hub spans
# --------------------------------------------------------------------------- #
@pytest.fixture()
def traced_serving():
    from repro.serve import ServeServer, StandingQueryService

    service = StandingQueryService(
        make_stream_catalog(seed=5)[0],
        config=ExecutionOptions(
            early_emit=True, metrics=True, trace=True, trace_sample_rate=1.0
        ),
    )
    server = ServeServer(service)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def host():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()
        loop.run_until_complete(server.close())
        loop.close()

    thread = threading.Thread(target=host, name="serve-trace-test-loop", daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0)
    yield server
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10.0)
    service.shutdown()


def test_trace_verb_returns_stitched_spans_over_ndjson(traced_serving):
    from repro.serve import ServeClient
    from repro.serve.hub import HUB_TRACE_ID_BASE

    with ServeClient("127.0.0.1", traced_serving.port) as client:
        client.register(
            "q1", [NodeSpec("j1", "left_outer", "a", "b", ON)]
        )
    with ServeClient("127.0.0.1", traced_serving.port) as subscriber:
        subscriber.subscribe("q1")
        for message in subscriber.events():
            if message.get("type") == "end":
                break
    with ServeClient("127.0.0.1", traced_serving.port) as client:
        spans = client.trace()
    assert spans and all(isinstance(span, dict) for span in spans)
    names = {span["name"] for span in spans}
    assert {"source", "operate", "hub_publish", "cursor_advance"} <= names
    # Hub spans live in their own trace-id block, disjoint from the
    # driver sampler's sequential ids — timelines can never collide.
    hub_ids = {s["trace"] for s in spans if s["name"] == "hub_publish"}
    element_ids = {s["trace"] for s in spans if s["name"] == "source"}
    assert hub_ids and min(hub_ids) >= HUB_TRACE_ID_BASE
    assert max(element_ids) < HUB_TRACE_ID_BASE
    # The verb's payload is NDJSON-safe by construction.
    json.dumps(spans)
