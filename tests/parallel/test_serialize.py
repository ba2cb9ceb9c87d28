"""Round-trip tests for the compact element codecs and the report wire."""

from __future__ import annotations

import pickle

import pytest

from repro.lineage import FALSE, TRUE, Var, lineage_and, lineage_not, lineage_or
from repro.parallel import (
    decode_lineage,
    decode_tagged,
    decode_tuple,
    encode_lineage,
    encode_tagged,
    encode_tuple,
)
from repro.relation import TPTuple
from repro.runtime.worker import WorkerReport, decode_report, encode_report
from repro.stream import CLOSED, LEFT, RIGHT, StreamEvent, Tagged, Watermark
from repro.temporal import Interval


@pytest.mark.parametrize(
    "expr",
    [
        Var("a1"),
        TRUE,
        FALSE,
        lineage_not(Var("b2")),
        lineage_and(Var("a1"), lineage_not(lineage_or(Var("b1"), Var("b2")))),
        lineage_or(Var("x"), lineage_and(Var("y"), Var("z")), Var("w")),
    ],
)
def test_lineage_roundtrip(expr):
    assert decode_lineage(encode_lineage(expr)) == expr


def test_lineage_encoding_is_primitive():
    code = encode_lineage(lineage_and(Var("a1"), lineage_not(Var("b1"))))

    def only_primitives(part):
        if isinstance(part, tuple):
            return all(only_primitives(item) for item in part)
        return isinstance(part, (str, int, float))

    assert only_primitives(code)


def test_tuple_roundtrip_with_and_without_probability():
    lineage = lineage_and(Var("a1"), lineage_not(Var("b1")))
    with_p = TPTuple(("Ann", None), lineage, Interval(2, 8), 0.28)
    without_p = TPTuple(("Ann", "ZAK"), Var("a1"), Interval(1, 3))
    assert decode_tuple(encode_tuple(with_p)) == with_p
    assert decode_tuple(encode_tuple(without_p)) == without_p


def test_tagged_event_roundtrip_keeps_side_sequence_and_clock():
    event = StreamEvent(TPTuple(("x",), Var("e1"), Interval(0, 4), 0.9), sequence=7)
    tagged = Tagged(LEFT, event, 123.456)
    decoded = decode_tagged(encode_tagged(tagged))
    assert decoded.side == LEFT
    assert decoded.element.sequence == 7
    assert decoded.element.tuple == event.tuple
    assert decoded.ingest_clock == 123.456


def test_tagged_watermark_roundtrip_including_closed():
    for value in (5, CLOSED):
        decoded = decode_tagged(encode_tagged(Tagged(RIGHT, Watermark(value))))
        assert decoded.side == RIGHT
        assert decoded.element.value == value
        assert decoded.ingest_clock is None


def _windows_of_one_positive() -> list:
    """Four windows over one positive, as a negating join builds them: they
    share ``λr`` and the negated disjunction object, and two more tuples
    bring their own equal-but-unshared nodes."""
    r = Var("r1")
    negated = lineage_not(lineage_or(Var("s1"), Var("s2")))
    shared = [
        TPTuple(("r1", None), r, Interval(0, 2), 0.1 + 0.2),
        TPTuple(("r1", None), lineage_and(r, negated), Interval(2, 4), 1 / 3),
        TPTuple(("r1", "s1"), lineage_and(r, Var("s1")), Interval(4, 6), 0.7),
        TPTuple(("r1", None), lineage_and(r, negated), Interval(6, 9), None),
    ]
    unshared = [
        TPTuple(("r2", None), lineage_and(Var("r2"), lineage_not(Var("s3"))), Interval(1, 3), 0.3),
        TPTuple(("r2", None), lineage_and(Var("r2"), lineage_not(Var("s3"))), Interval(3, 5), 0.3),
    ]
    return shared + unshared


def _over_the_wire(outputs: list) -> list:
    """The outputs of a report after its frame crosses a socket."""
    frame = pickle.dumps(encode_report(WorkerReport(index=0, outputs=outputs)))
    return decode_report(pickle.loads(frame)).outputs


def test_report_round_trip_is_exact_and_rebuilds_shared_nodes_once():
    tuples = _windows_of_one_positive()
    decoded = _over_the_wire(tuples)
    assert decoded == tuples
    assert [tp_tuple.probability.hex() for tp_tuple in decoded if tp_tuple.probability] == [
        tp_tuple.probability.hex() for tp_tuple in tuples if tp_tuple.probability
    ]
    # λr and ¬(s1 ∨ s2) arrive as one object each...
    assert decoded[1].lineage.operands[0] is decoded[0].lineage is decoded[2].lineage.operands[0]
    assert decoded[1].lineage.operands[1] is decoded[3].lineage.operands[1]
    # ...but equal nodes of distinct objects stay distinct.
    assert decoded[4].lineage == decoded[5].lineage
    assert decoded[4].lineage is not decoded[5].lineage


def test_a_report_frame_grows_with_the_distinct_nodes_not_the_windows():
    """N windows of one positive negated by the same eight negatives pickle
    their shared lineage once: the frame is far smaller than N one-window
    frames, or than N windows each carrying an equal lineage of its own."""
    negatives = [Var(f"s{index}") for index in range(8)]

    def lineage():
        return lineage_and(Var("r1"), lineage_not(lineage_or(*negatives)))

    shared = lineage()
    count = 200
    windows = [
        TPTuple(("r1", None), shared, Interval(index, index + 1), 0.25) for index in range(count)
    ]
    unshared = [
        TPTuple(("r1", None), lineage(), Interval(index, index + 1), 0.25) for index in range(count)
    ]

    def frame_bytes(outputs):
        return len(pickle.dumps(encode_report(WorkerReport(index=0, outputs=outputs))))

    assert frame_bytes(windows) < count * frame_bytes(windows[:1]) / 3
    assert frame_bytes(windows) < frame_bytes(unshared) / 2
    assert _over_the_wire(windows) == windows
