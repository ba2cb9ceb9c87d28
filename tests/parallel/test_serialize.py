"""Round-trip tests for the compact partition codecs."""

from __future__ import annotations

import pickle

import pytest

from repro.lineage import FALSE, TRUE, Var, lineage_and, lineage_not, lineage_or
from repro.parallel import (
    decode_lineage,
    decode_tagged,
    decode_tuple,
    decode_tuples,
    encode_lineage,
    encode_tagged,
    encode_tuple,
    encode_tuples,
)
from repro.relation import TPTuple
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


def test_tuple_batch_roundtrip_preserves_order():
    tuples = [
        TPTuple((f"f{i}",), Var(f"e{i}"), Interval(i, i + 2), 0.5) for i in range(6)
    ]
    assert decode_tuples(encode_tuples(tuples)) == tuples


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


def test_batch_codes_equal_the_per_tuple_codes_and_ship_shared_nodes_once():
    tuples = _windows_of_one_positive()
    codes = encode_tuples(tuples)
    assert codes == [encode_tuple(tp_tuple) for tp_tuple in tuples]
    # λr and ¬(s1 ∨ s2) are one object each in the batch's codes...
    assert codes[1][1][1] is codes[0][1] is codes[2][1][1]
    assert codes[1][1][2] is codes[3][1][2]
    # ...but equal nodes of distinct objects keep distinct codes.
    assert codes[4][1] == codes[5][1] and codes[4][1] is not codes[5][1]
    per_tuple = pickle.dumps([encode_tuple(tp_tuple) for tp_tuple in tuples])
    assert len(pickle.dumps(codes)) < len(per_tuple)


def test_batch_round_trip_through_pickle_is_exact_and_rebuilds_shared_nodes_once():
    tuples = _windows_of_one_positive()
    decoded = decode_tuples(pickle.loads(pickle.dumps(encode_tuples(tuples))))
    assert decoded == tuples
    assert [tp_tuple.probability.hex() for tp_tuple in decoded if tp_tuple.probability] == [
        tp_tuple.probability.hex() for tp_tuple in tuples if tp_tuple.probability
    ]
    assert decoded[1].lineage.operands[0] is decoded[0].lineage
    assert decoded[1].lineage.operands[1] is decoded[3].lineage.operands[1]
    assert decoded[4].lineage is not decoded[5].lineage


def test_batch_codecs_take_one_shot_iterables_of_fresh_objects():
    """Nodes and codes are known by ``id``: a generator's items must stay
    alive, or a later item could reuse a dead one's id and its code."""
    def fresh():
        for index in range(200):
            yield TPTuple(
                (f"f{index}",),
                lineage_and(Var(f"r{index}"), lineage_not(Var(f"s{index}"))),
                Interval(index, index + 1),
                0.5,
            )

    expected = list(fresh())
    codes = encode_tuples(fresh())
    assert codes == [encode_tuple(tp_tuple) for tp_tuple in expected]
    assert decode_tuples(tuple(code) for code in codes) == expected
