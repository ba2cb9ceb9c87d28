"""Serving-layer telemetry: hub cursor lags, stats/watch verbs, Prometheus."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import ExecutionOptions
from repro.dataflow import NodeSpec
from repro.serve import (
    FanoutHub,
    ServeClient,
    ServeServer,
    SlowSubscriberDisconnected,
    StandingQueryService,
)
from tests.dataflow.conftest import make_stream_catalog

ON = (("Key", "Key"),)
JOIN = NodeSpec("j1", "left_outer", "a", "b", ON)


# --------------------------------------------------------------------------- #
# hub cursor lag
# --------------------------------------------------------------------------- #
def test_hub_cursor_lag_tracks_a_stalled_subscriber():
    hub = FanoutHub(capacity=64, policy="block")
    fast = hub.attach()
    slow = hub.attach()
    for value in range(10):
        hub.publish(value)
    # The fast subscriber drains; the stalled one never reads.
    for _ in range(10):
        fast.read(timeout=1.0)
    lags = hub.subscriber_lags()
    assert lags[fast.id] == 0
    assert lags[slow.id] == 10
    metrics = hub.metrics()
    assert metrics["max_cursor_lag"] == 10
    assert metrics["subscribers"] == 2
    assert metrics["published"] == 10
    assert metrics["ring_size"] == 10  # retained for the laggard
    assert metrics["ring_high_watermark"] == 10
    # Ten single-element reads: delivery is ping-ponging, mean batch 1.
    assert (metrics["read_batches"], metrics["elements_read"]) == (10, 10)
    # Once the laggard catches up, lag and occupancy collapse.
    for _ in range(10):
        slow.read(timeout=1.0)
    assert hub.subscriber_lags()[slow.id] == 0
    assert hub.metrics()["ring_size"] == 0
    assert hub.metrics()["elements_read"] == 20
    fast.close()
    slow.close()


def test_hub_metrics_exclude_disconnected_subscribers():
    hub = FanoutHub(capacity=4, policy="disconnect")
    laggard = hub.attach()
    for value in range(6):  # overflows capacity → laggard is dropped
        hub.publish(value)
    assert hub.metrics()["disconnects"] == 1
    assert hub.subscriber_lags() == {}  # nobody live is lagging
    with pytest.raises(SlowSubscriberDisconnected):
        laggard.read(timeout=0.1)


# --------------------------------------------------------------------------- #
# stats / watch over TCP + the Prometheus rendering
# --------------------------------------------------------------------------- #
@pytest.fixture()
def serving():
    """A metrics-enabled StandingQueryService behind a live TCP server."""
    service = StandingQueryService(
        make_stream_catalog(seed=5)[0],
        config=ExecutionOptions(early_emit=True, metrics=True),
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

    thread = threading.Thread(target=host, name="serve-obs-test-loop", daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0)
    yield server
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10.0)
    service.shutdown()


def _run_query_to_settlement(server) -> None:
    with ServeClient("127.0.0.1", server.port) as subscriber:
        subscriber.subscribe("q1")
        for message in subscriber.events():
            if message.get("type") == "end":
                break


def test_stats_verb_returns_serving_and_worker_telemetry(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
        _run_query_to_settlement(serving)
        stats = client.stats()
    assert stats["type"] == "stats"
    query_stats = stats["queries"]["q1"]
    assert query_stats["published"] > 0
    telemetry = stats["metrics"]["q1"]
    assert telemetry["hub"]["published"] == query_stats["published"]
    assert telemetry["hub"]["capacity"] == 256
    # One subscriber read everything, in no more batches than elements.
    assert telemetry["hub"]["elements_read"] == query_stats["published"]
    assert 0 < telemetry["hub"]["read_batches"] <= telemetry["hub"]["elements_read"]
    # Each dispatched output list entered the hub as one batch.
    assert 0 < telemetry["hub"]["publish_batches"] <= telemetry["hub"]["published"]
    # The plan group ran with metrics on: worker totals came home.
    assert telemetry["workers"] is not None
    totals = telemetry["workers"]["totals"]
    assert totals["elements_routed"] == totals["elements_operated"] > 0
    assert "load_skew" in telemetry["workers"]


def test_watch_verb_streams_stats_until_detach(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
    with ServeClient("127.0.0.1", serving.port) as watcher:
        lines = []
        stream = watcher.watch(interval=0.05)
        for message in stream:
            lines.append(message)
            if len(lines) == 3:
                watcher.detach()
        assert len(lines) >= 3
        assert all(line["type"] == "stats" for line in lines)
        assert all("q1" in line["queries"] for line in lines)


def test_prometheus_rendering_covers_hubs_and_workers(serving):
    from repro.serve.__main__ import _render_prometheus

    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
    _run_query_to_settlement(serving)
    text = _render_prometheus(serving.service)
    assert "# TYPE repro_hub_published_total counter" in text
    assert "# TYPE repro_hub_read_batches_total counter" in text
    assert "# TYPE repro_hub_publish_batches_total counter" in text
    batches = serving.service.metrics()["q1"]["hub"]["publish_batches"]
    assert batches > 0
    labels = 'component="hub",query="q1",worker="hub/q1"'
    assert f"repro_hub_publish_batches_total{{{labels}}} {batches}" in text
    assert "# TYPE repro_hub_elements_read_total counter" in text
    assert 'query="q1"' in text
    assert "# TYPE repro_elements_routed_total counter" in text
    assert 'queries="q1"' in text


def test_service_worker_snapshots_relabel_by_group(serving):
    with ServeClient("127.0.0.1", serving.port) as client:
        client.register("q1", [JOIN])
    _run_query_to_settlement(serving)
    snapshots = serving.service.worker_snapshots()
    assert snapshots
    for snapshot in snapshots:
        assert snapshot["labels"]["queries"] == "q1"
        assert snapshot["labels"]["worker"].startswith("q1/")
