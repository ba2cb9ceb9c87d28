"""Ingestion-layer tests: watermark progression and bounded-lateness eviction."""

from __future__ import annotations

import pytest

from repro.relation import Schema, TPRelation
from repro.stream import CLOSED, StreamEvent, StreamSource, Watermark


def _tuples(*rows):
    relation = TPRelation.from_rows(
        Schema.of("Key", "Serial"),
        [(key, serial, f"e{serial}", start, end, 0.5) for key, serial, start, end in rows],
        name="t",
    )
    return list(relation)


def test_source_wraps_tuples_in_sequenced_events():
    tuples = _tuples(("k", 0, 0, 5), ("k", 1, 5, 9))
    elements = list(StreamSource(tuples, watermark_every=10))
    events = [e for e in elements if isinstance(e, StreamEvent)]
    assert [event.sequence for event in events] == [0, 1]
    assert [event.tuple for event in events] == tuples


def test_source_emits_trailing_watermarks():
    tuples = _tuples(("k", 0, 0, 5), ("k", 1, 10, 12), ("k", 2, 20, 21))
    elements = list(StreamSource(tuples, lateness=3, watermark_every=1))
    watermarks = [e.value for e in elements if isinstance(e, Watermark)]
    # max-start-seen minus lateness after each event, then the closing mark.
    assert watermarks == [-3, 7, 17, CLOSED]


def test_watermark_never_regresses_on_disorder():
    tuples = _tuples(("k", 0, 10, 12), ("k", 1, 4, 9), ("k", 2, 11, 13))
    elements = list(StreamSource(tuples, lateness=6, watermark_every=1))
    watermarks = [e.value for e in elements if isinstance(e, Watermark)]
    assert watermarks == sorted(watermarks)
    # The event starting at 4 is within the lateness bound: not evicted.
    events = [e for e in elements if isinstance(e, StreamEvent)]
    assert len(events) == 3


def test_late_events_are_evicted_and_counted():
    tuples = _tuples(("k", 0, 20, 25), ("k", 1, 2, 6), ("k", 2, 21, 22))
    source = StreamSource(tuples, lateness=5, watermark_every=1)
    events = [e for e in source if isinstance(e, StreamEvent)]
    # start=2 < watermark 15 after the first event: evicted at the door.
    assert [event.tuple.start for event in events] == [20, 21]
    assert source.stats.late_evicted == 1
    assert source.stats.events_emitted == 2


def test_exhaustion_closes_the_stream():
    elements = list(StreamSource(_tuples(("k", 0, 0, 1)), watermark_every=100))
    assert isinstance(elements[-1], Watermark)
    assert elements[-1].value == CLOSED


def test_source_validates_configuration():
    with pytest.raises(ValueError):
        StreamSource([], lateness=-1)
    with pytest.raises(ValueError):
        StreamSource([], watermark_every=0)
