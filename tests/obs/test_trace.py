"""Tracing core: sampler, recorder ring, aggregator, codecs, exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FlightRecorder,
    TraceAggregator,
    Tracer,
    TraceSampler,
    clock_anchor,
    estimate_clock_offset,
    render_flight_dump,
)
from repro.obs.trace import find_tuples, render_tuple_explanation, shift_spans


# --------------------------------------------------------------------------- #
# sampler
# --------------------------------------------------------------------------- #
def test_sampler_rate_one_samples_everything_sequentially():
    sampler = TraceSampler(1.0)
    assert [sampler.sample() for _ in range(5)] == [1, 2, 3, 4, 5]


def test_sampler_is_a_deterministic_error_accumulator():
    sampler = TraceSampler(0.25)
    picks = [sampler.sample() for _ in range(12)]
    # Every 4th element exactly — no RNG, so runs are reproducible.
    assert picks == [None, None, None, 1, None, None, None, 2,
                     None, None, None, 3]
    # A fresh sampler with the same rate makes identical decisions.
    again = TraceSampler(0.25)
    assert [again.sample() for _ in range(12)] == picks


def test_sampler_rate_zero_never_samples():
    sampler = TraceSampler(0.0)
    assert all(sampler.sample() is None for _ in range(100))


def test_sampler_first_id_offsets_the_sequence():
    sampler = TraceSampler(1.0, first_id=1_000_000)
    assert sampler.sample() == 1_000_000
    assert sampler.sample() == 1_000_001


@pytest.mark.parametrize("rate", (-0.1, 1.5))
def test_sampler_rejects_out_of_range_rates(rate):
    with pytest.raises(ValueError, match="sample rate"):
        TraceSampler(rate)


# --------------------------------------------------------------------------- #
# flight recorder ring
# --------------------------------------------------------------------------- #
def test_recorder_ring_is_bounded_and_keeps_the_newest():
    recorder = FlightRecorder(capacity=4)
    for index in range(10):
        recorder.record({"span": f"w:{index}"})
    assert len(recorder) == 4
    assert [span["span"] for span in recorder.dump()] == [
        "w:6", "w:7", "w:8", "w:9"
    ]


def test_recorder_pending_cursor_drains_only_new_spans():
    recorder = FlightRecorder(capacity=8)
    recorder.record({"span": "w:0"})
    recorder.record({"span": "w:1"})
    assert [span["span"] for span in recorder.pending()] == ["w:0", "w:1"]
    assert recorder.pending() == []  # nothing new since the last drain
    recorder.record({"span": "w:2"})
    assert [span["span"] for span in recorder.pending()] == ["w:2"]
    # dump() still returns everything retained, independent of the cursor.
    assert len(recorder.dump()) == 3


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_flight_dump_renders_spans_and_last_counters():
    tracer = Tracer("3")
    tracer.record("operate", 7, None, 1.0, 1.001, node="n1")
    text = render_flight_dump(
        "worker 3", tracer.dump(), {"counters": {"elements_routed": 42}}
    )
    assert "flight recorder dump for worker 3: 1 span(s) retained" in text
    assert "trace=7" in text and "operate" in text and "node=n1" in text
    assert "elements_routed=42" in text


def test_flight_dump_without_spans_says_so():
    text = render_flight_dump("worker 0", [])
    assert "no spans recorded" in text


# --------------------------------------------------------------------------- #
# tracer + aggregator
# --------------------------------------------------------------------------- #
def test_tracer_span_shape_and_unique_ids():
    tracer = Tracer("2", node="n1")
    first = tracer.record("queue_wait", 5, None, 1.0, 1.5, channel=0)
    second = tracer.record("operate", 5, first, 1.5, 1.7)
    spans = tracer.dump()
    assert [span["span"] for span in spans] == ["2:0", "2:1"]
    assert spans[0]["name"] == "queue_wait"
    assert spans[0]["worker"] == "2" and spans[0]["node"] == "n1"
    assert spans[0]["channel"] == 0 and "parent" not in spans[0]
    assert spans[1]["parent"] == first == "2:0"
    assert second == "2:1"


def test_aggregator_dedupes_overlapping_shipments_by_span_id():
    tracer = Tracer("0")
    tracer.record("operate", 1, None, 1.0, 1.1)
    periodic = tracer.pending()
    tracer.record("emit", 1, "0:0", 1.1, 1.2)
    final = tracer.dump()  # overlaps the periodic shipment
    aggregator = TraceAggregator()
    aggregator.add_spans(periodic)
    aggregator.add_spans(final)
    assert len(aggregator) == 2
    timeline = aggregator.timeline(1)
    assert [span["name"] for span in timeline] == ["operate", "emit"]


def test_aggregator_orders_timelines_by_start_time():
    aggregator = TraceAggregator()
    aggregator.add_spans(
        [
            {"span": "1:0", "trace": 9, "name": "late", "t0": 2.0, "t1": 2.1},
            {"span": "0:0", "trace": 9, "name": "early", "t0": 1.0, "t1": 1.1},
            {"span": "0:1", "trace": 4, "name": "other", "t0": 0.5, "t1": 0.6},
        ]
    )
    assert [s["name"] for s in aggregator.timeline(9)] == ["early", "late"]
    timelines = aggregator.timelines()
    assert set(timelines) == {4, 9}
    rendered = aggregator.render_timeline(9)
    assert rendered.startswith("trace 9: 2 span(s)")
    assert "early" in rendered and "late" in rendered
    assert aggregator.render_timeline(123) == "trace 123: no spans recorded"


def test_aggregator_applies_clock_offset_on_ingest():
    aggregator = TraceAggregator()
    aggregator.add_spans(
        [{"span": "r:0", "trace": 1, "name": "operate", "t0": 1.0, "t1": 2.0}],
        clock_offset=10.0,
    )
    span = aggregator.spans()[0]
    assert span["t0"] == 11.0 and span["t1"] == 12.0


# --------------------------------------------------------------------------- #
# chrome trace export
# --------------------------------------------------------------------------- #
def test_chrome_trace_is_valid_and_carries_metadata(tmp_path):
    tracer = Tracer("0")
    root = tracer.record("source", 1, None, 5.0, 5.0)
    tracer.record("operate", 1, root, 5.001, 5.002, node="n1")
    other = Tracer("1")
    other.record("emit", 1, root, 5.002, 5.003)
    aggregator = TraceAggregator()
    aggregator.add_spans(tracer.dump())
    aggregator.add_spans(other.dump())
    path = tmp_path / "trace.json"
    aggregator.write_chrome_trace(str(path))
    document = json.loads(path.read_text())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    metadata = [event for event in events if event["ph"] == "M"]
    assert len(complete) == 3
    assert {event["name"] for event in metadata} == {
        "process_name", "thread_name",
    }
    # Two workers → two named thread lanes under one process.
    names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
    assert names == {"worker 0", "worker 1"}
    for event in complete:
        assert event["ts"] >= 0.0
        assert event["dur"] > 0.0  # zero-width spans get a visible floor
        assert event["pid"] == 1
        assert event["args"]["trace"] == 1


# --------------------------------------------------------------------------- #
# clock anchoring
# --------------------------------------------------------------------------- #
def test_clock_offset_recovers_a_simulated_remote_clock():
    wall, perf = clock_anchor()
    # A remote host whose perf_counter started 100s "later" than ours.
    remote = (wall, perf - 100.0)
    offset = estimate_clock_offset(remote, local_anchor=(wall, perf))
    assert offset == pytest.approx(100.0)
    # Same-host anchors are (near) zero offset.
    assert estimate_clock_offset((wall, perf), (wall, perf)) == 0.0


def test_shift_spans_copies_and_shifts():
    spans = [{"span": "0:0", "t0": 1.0, "t1": 2.0}]
    shifted = shift_spans(spans, 5.0)
    assert shifted[0]["t0"] == 6.0 and shifted[0]["t1"] == 7.0
    assert spans[0]["t0"] == 1.0  # originals untouched
    assert shift_spans(spans, 0.0) == spans


# --------------------------------------------------------------------------- #
# explain-tuple helpers
# --------------------------------------------------------------------------- #
def _settled_tuple():
    from repro.relation import Schema, TPRelation

    relation = TPRelation.from_rows(
        Schema.of("Key", "Serial"), [("k1", "a0", "a0", 0, 5, 0.5)]
    )
    return next(iter(relation))


def test_find_tuples_by_scalar_and_exact_fact():
    tp_tuple = _settled_tuple()
    tuples = [tp_tuple]
    assert find_tuples(tuples, "k1") == [tp_tuple]
    assert find_tuples(tuples, tuple(tp_tuple.fact)) == [tp_tuple]
    assert find_tuples(tuples, "nope") == []
    assert find_tuples(tuples, ("k1",)) == []  # partial facts do not match


def test_render_tuple_explanation_joins_lineage_with_spans():
    tp_tuple = _settled_tuple()
    aggregator = TraceAggregator()
    aggregator.add_spans(
        [
            {"span": "0:0", "trace": 3, "name": "source", "t0": 1.0, "t1": 1.0,
             "vars": ("a0",)},
            {"span": "0:1", "trace": 8, "name": "source", "t0": 1.0, "t1": 1.0,
             "vars": ("zz",)},
        ]
    )
    text = render_tuple_explanation(tp_tuple, aggregator)
    assert text.startswith(f"tuple {tuple(tp_tuple.fact)}")
    assert "interval: [0, 5)" in text
    assert "probability: 0.5" in text
    assert "1 contributing timeline(s)" in text
    assert "trace 3:" in text and "trace 8:" not in text


def test_render_tuple_explanation_without_traces():
    tp_tuple = _settled_tuple()
    assert "none recorded" in render_tuple_explanation(tp_tuple, None)
    empty = TraceAggregator()
    assert "none recorded" in render_tuple_explanation(tp_tuple, empty)
    unrelated = TraceAggregator()
    unrelated.add_spans(
        [{"span": "0:0", "trace": 1, "name": "source", "t0": 0, "t1": 0,
          "vars": ("zz",)}]
    )
    text = render_tuple_explanation(tp_tuple, unrelated)
    assert "no sampled element contributed" in text


# --------------------------------------------------------------------------- #
# wire codecs: trailing trace context stays backward compatible
# --------------------------------------------------------------------------- #
def test_tagged_codec_roundtrips_trace_context():
    from repro.parallel.serialize import decode_tagged, encode_tagged
    from repro.stream.elements import LEFT, StreamEvent, Tagged

    event = StreamEvent(_settled_tuple(), sequence=4)
    plain = Tagged(LEFT, event, 1.5)
    code = encode_tagged(plain)
    assert len(code) == 5  # untraced: the exact pre-trace wire shape
    assert decode_tagged(code).trace is None
    traced = Tagged(LEFT, event, 1.5, (7, "driver:0"))
    decoded = decode_tagged(encode_tagged(traced))
    assert decoded.trace == (7, "driver:0")
    assert decoded.ingest_clock == 1.5
    # Old five-field frames (pre-trace peers) still decode.
    assert decode_tagged(code[:5]).element.sequence == 4


def test_revision_codec_roundtrips_trace_context():
    from repro.dataflow.revision import Revision
    from repro.parallel.serialize import (
        decode_revision_tagged,
        encode_revision_tagged,
    )
    from repro.stream.elements import RIGHT, Tagged

    revision = Revision("emit", _settled_tuple(), provisional=True)
    plain = Tagged(RIGHT, revision, None)
    code = encode_revision_tagged(plain)
    assert len(code) == 6
    assert decode_revision_tagged(code).trace is None
    traced = Tagged(RIGHT, revision, None, (9, "2:5"))
    decoded = decode_revision_tagged(encode_revision_tagged(traced))
    assert decoded.trace == (9, "2:5")
    assert decoded.element.kind == "emit"


def test_report_codec_roundtrips_spans_and_clock_offset():
    from repro.runtime.worker import WorkerReport, decode_report, encode_report

    spans = [{"span": "0:0", "trace": 1, "name": "operate", "t0": 0, "t1": 1}]
    report = WorkerReport(index=3, spans=spans, clock_offset=0.25)
    decoded = decode_report(encode_report(report))
    assert decoded.spans == spans
    assert decoded.clock_offset == 0.25
