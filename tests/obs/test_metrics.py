"""Unit tests for the metrics primitives and the driver-side aggregator."""

from __future__ import annotations

import pickle

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsAggregator,
    MetricsRegistry,
    registry_for_spec,
)


def test_counter_gauge_histogram_basics():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5

    gauge = Gauge()
    gauge.set(3.5)
    assert gauge.value == 3.5

    histogram = Histogram(bounds=(1, 4, 16))
    for value in (1, 2, 5, 100):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 108
    assert histogram.buckets == [1, 1, 1, 1]  # <=1, <=4, <=16, overflow


def test_registry_snapshot_is_plain_and_picklable():
    registry = MetricsRegistry(worker=3, node="j", kind="left_outer")
    registry.counter("elements_routed").inc(7)
    registry.gauge("watermark").set(12.0)
    registry.histogram("batch_size").observe(3)
    snapshot = registry.snapshot()
    assert snapshot["labels"] == {"worker": "3", "node": "j", "kind": "left_outer"}
    assert snapshot["counters"]["elements_routed"] == 7
    assert snapshot["gauges"]["watermark"] == 12.0
    assert snapshot["histograms"]["batch_size"]["count"] == 1
    # Crosses the runtime codecs / NDJSON front end as-is.
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    import json

    json.dumps(snapshot)


def test_registry_for_spec_duck_types_labels():
    class ShardSpec:
        index = 2
        kind = "anti"

    labels = registry_for_spec(ShardSpec()).labels
    assert labels["worker"] == "2"
    assert labels["kind"] == "anti"
    assert labels["partition"] == "2"  # falls back to the index

    class NodeSpec:
        index = 5
        name = "n1"
        kind = "left_outer"
        partition = 1

    labels = registry_for_spec(NodeSpec()).labels
    assert labels == {
        "worker": "5",
        "node": "n1",
        "kind": "left_outer",
        "partition": "1",
    }


def _snapshot(worker, counters=None, gauges=None, node="j"):
    return {
        "labels": {"worker": str(worker), "node": node, "kind": "left_outer"},
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": {},
    }


def test_aggregator_replaces_by_worker_never_double_counts():
    aggregator = MetricsAggregator()
    # A periodic snapshot followed by the final one from the same worker:
    aggregator.update(_snapshot(0, {"elements_routed": 10}))
    aggregator.update(_snapshot(0, {"elements_routed": 25}))
    aggregator.update(_snapshot(1, {"elements_routed": 5}))
    assert aggregator.totals() == {"elements_routed": 30}


def test_aggregator_merges_gauges_min_for_progress_max_otherwise():
    aggregator = MetricsAggregator()
    aggregator.update(
        _snapshot(0, gauges={"watermark": 10.0, "inbox_depth": 3.0})
    )
    aggregator.update(
        _snapshot(1, gauges={"watermark": 7.0, "inbox_depth": 9.0})
    )
    node = aggregator.by_node()["j"]
    # A stage's effective watermark is its slowest partition's...
    assert node["gauges"]["watermark"] == 7.0
    # ...while occupancy-style gauges report the worst (largest) reading.
    assert node["gauges"]["inbox_depth"] == 9.0
    assert node["workers"] == 2


def test_aggregator_load_skew():
    aggregator = MetricsAggregator()
    aggregator.update(_snapshot(0, {"elements_operated": 30}))
    aggregator.update(_snapshot(1, {"elements_operated": 10}))
    skew = aggregator.load_skew()
    assert skew["max"] == 30
    assert skew["mean"] == 20.0
    assert skew["skew"] == 1.5
    assert skew["per_worker"] == {"0": 30, "1": 10}


def test_render_report_mentions_flow_and_skew():
    aggregator = MetricsAggregator()
    aggregator.update(
        _snapshot(
            0,
            {"elements_routed": 4, "elements_operated": 4, "revision_emits": 2},
            {"watermark": 3.0},
        )
    )
    report = aggregator.render_report()
    assert "j [left_outer]" in report
    assert "routed=4" in report
    assert "emits=2" in report
    assert "watermark=3" in report


def test_prometheus_text_exposition_format():
    aggregator = MetricsAggregator()
    registry = MetricsRegistry(worker=0, node="j")
    registry.counter("elements_routed").inc(3)
    registry.gauge("watermark").set(float("inf"))
    histogram = registry.histogram("batch_size", bounds=(1, 2))
    histogram.observe(1)
    histogram.observe(5)
    aggregator.update(registry.snapshot())
    text = aggregator.prometheus_text()
    assert '# TYPE repro_elements_routed_total counter' in text
    assert 'repro_elements_routed_total{node="j",worker="0"} 3' in text
    # Infinity renders in the exposition format, not as Python's "inf".
    assert 'repro_watermark{node="j",worker="0"} +Inf' in text
    # Histogram buckets are cumulative, with the +Inf bucket == count.
    assert 'le="1"} 1' in text
    assert 'le="2"} 1' in text
    assert 'le="+Inf"} 2' in text
    assert 'repro_batch_size_count{node="j",worker="0"} 2' in text
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    aggregator = MetricsAggregator()
    aggregator.update(
        {
            "labels": {"worker": 'a"b\\c'},
            "counters": {"x": 1},
            "gauges": {},
            "histograms": {},
        }
    )
    text = aggregator.prometheus_text()
    assert 'worker="a\\"b\\\\c"' in text


def test_default_buckets_cover_micro_batches():
    assert DEFAULT_BUCKETS[0] == 1
    assert DEFAULT_BUCKETS[-1] == 256
