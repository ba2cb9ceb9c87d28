"""Property round-trips for the wire codecs the socket transport ships.

Every byte that crosses a process or TCP boundary goes through
``repro/parallel/serialize.py``: lineage trees, TP tuples, stream events,
watermark frames, and dataflow revisions (all kinds × provisional).  These
hypothesis suites pin that every codec is an exact inverse bijection over
randomly generated values — the distributed backend is only as correct as
these encodings.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.dataflow import Revision, RevisionKind
from repro.lineage import FALSE, TRUE, And, Not, Or, Var
from repro.parallel import (
    decode_lineage,
    decode_tagged,
    decode_tuple,
    encode_lineage,
    encode_tagged,
    encode_tuple,
)
from repro.parallel.serialize import decode_revision_tagged, encode_revision_tagged
from repro.relation import TPTuple
from repro.stream import CLOSED, LEFT, RIGHT, StreamEvent, Tagged, Watermark
from repro.temporal import Interval

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_event_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)

lineages = st.recursive(
    st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        _event_names.map(Var),
    ),
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=2, max_size=4).map(lambda parts: And(tuple(parts))),
        st.lists(children, min_size=2, max_size=4).map(lambda parts: Or(tuple(parts))),
    ),
    max_leaves=12,
)

_fact_values = st.one_of(
    st.none(),
    st.integers(min_value=-10_000, max_value=10_000),
    st.text(max_size=8),
)

_probabilities = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)


@st.composite
def tp_tuples(draw):
    fact = tuple(draw(st.lists(_fact_values, min_size=1, max_size=5)))
    start = draw(st.integers(min_value=-1_000, max_value=1_000))
    length = draw(st.integers(min_value=1, max_value=500))
    return TPTuple(
        fact,
        draw(lineages),
        Interval(start, start + length),
        draw(_probabilities),
    )


_sides = st.sampled_from([LEFT, RIGHT])
_clocks = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
)

#: Watermark values as they occur in the wild: finite event times, the
#: stream-closing +inf, and the never-reported -inf floor.
_watermark_values = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.just(CLOSED),
    st.just(float("-inf")),
)


@st.composite
def tagged_events(draw):
    return Tagged(
        draw(_sides),
        StreamEvent(draw(tp_tuples()), sequence=draw(st.integers(0, 2**31))),
        draw(_clocks),
    )


@st.composite
def tagged_watermarks(draw):
    return Tagged(draw(_sides), Watermark(draw(_watermark_values)))


@st.composite
def tagged_revisions(draw):
    return Tagged(
        draw(_sides),
        Revision(
            draw(st.sampled_from(list(RevisionKind))),
            draw(tp_tuples()),
            provisional=draw(st.booleans()),
        ),
        draw(_clocks),
    )


# --------------------------------------------------------------------------- #
# round-trips
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(expr=lineages)
def test_lineage_roundtrip_is_exact(expr):
    assert decode_lineage(encode_lineage(expr)) == expr


@settings(max_examples=200, deadline=None)
@given(tp_tuple=tp_tuples())
def test_tuple_roundtrip_is_exact(tp_tuple):
    decoded = decode_tuple(encode_tuple(tp_tuple))
    assert decoded == tp_tuple
    # Probability equality must be bitwise, not approximate.
    assert decoded.probability == tp_tuple.probability


@settings(max_examples=150, deadline=None)
@given(tagged=tagged_events())
def test_event_roundtrip_preserves_side_sequence_and_clock(tagged):
    decoded = decode_tagged(encode_tagged(tagged))
    assert decoded.side == tagged.side
    assert decoded.ingest_clock == tagged.ingest_clock
    assert decoded.element == tagged.element


@settings(max_examples=150, deadline=None)
@given(tagged=tagged_watermarks())
def test_watermark_roundtrip_preserves_value(tagged):
    decoded = decode_tagged(encode_tagged(tagged))
    assert decoded.side == tagged.side
    assert isinstance(decoded.element, Watermark)
    value = decoded.element.value
    assert value == tagged.element.value or (
        math.isinf(value) and math.isinf(tagged.element.value)
    )
    assert (value == CLOSED) == (tagged.element.value == CLOSED)


@settings(max_examples=200, deadline=None)
@given(tagged=tagged_revisions())
def test_revision_roundtrip_covers_all_kinds_and_provisional(tagged):
    decoded = decode_revision_tagged(encode_revision_tagged(tagged))
    assert decoded.side == tagged.side
    assert decoded.ingest_clock == tagged.ingest_clock
    revision = decoded.element
    assert isinstance(revision, Revision)
    assert revision.kind is tagged.element.kind
    assert revision.provisional == tagged.element.provisional
    assert revision.tuple == tagged.element.tuple


@settings(max_examples=100, deadline=None)
@given(
    tagged=st.one_of(tagged_events(), tagged_watermarks()),
)
def test_revision_codec_delegates_stream_elements_unchanged(tagged):
    """Source edges and node edges share one wire format."""
    assert encode_revision_tagged(tagged) == encode_tagged(tagged)
    decoded = decode_revision_tagged(encode_revision_tagged(tagged))
    assert decoded.element == tagged.element
