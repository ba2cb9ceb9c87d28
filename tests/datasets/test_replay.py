"""Replay generator tests: disorder bounds, determinism, stream definitions."""

from __future__ import annotations

import pytest

from repro.datasets import (
    ReplayConfig,
    arrival_order,
    meteo_pair,
    stream_def,
)
from repro.stream import CLOSED, StreamEvent, Watermark


def test_zero_disorder_replays_in_event_time_order():
    relation, _ = meteo_pair(200, seed=5)
    ordered = arrival_order(relation, disorder=0, seed=0)
    starts = [t.start for t in ordered]
    assert starts == sorted(starts)
    assert sorted(t.key() for t in ordered) == sorted(t.key() for t in relation)


@pytest.mark.parametrize("disorder", [1, 5, 20])
def test_disorder_displacement_is_bounded(disorder):
    relation, _ = meteo_pair(300, seed=7)
    ordered = arrival_order(relation, disorder=disorder, seed=3)
    max_start_seen = float("-inf")
    for tp_tuple in ordered:
        # No tuple arrives more than `disorder` behind the furthest start.
        assert tp_tuple.start >= max_start_seen - disorder
        max_start_seen = max(max_start_seen, tp_tuple.start)


def test_disorder_actually_reorders():
    relation, _ = meteo_pair(300, seed=7)
    starts = [t.start for t in arrival_order(relation, disorder=20, seed=3)]
    assert starts != sorted(starts)


def test_arrival_order_is_deterministic_per_seed():
    relation, _ = meteo_pair(100, seed=1)
    first = arrival_order(relation, disorder=9, seed=4)
    second = arrival_order(relation, disorder=9, seed=4)
    other = arrival_order(relation, disorder=9, seed=5)
    assert first == second
    assert first != other


def test_replay_source_with_matched_lateness_evicts_nothing():
    relation, _ = meteo_pair(250, seed=2)
    source = stream_def(relation, ReplayConfig(disorder=12, seed=6)).replay()
    events = [e for e in source if isinstance(e, StreamEvent)]
    assert len(events) == len(relation)
    assert source.stats.late_evicted == 0


def test_stream_def_replay_is_repeatable():
    relation, _ = meteo_pair(80, seed=9)
    definition = stream_def(relation, ReplayConfig(disorder=4, seed=2), name="m")
    first = [e.tuple.key() for e in definition.replay() if isinstance(e, StreamEvent)]
    second = [e.tuple.key() for e in definition.replay() if isinstance(e, StreamEvent)]
    assert first == second
    assert definition.name == "m"
    assert definition.schema == relation.schema


def test_replay_interleaves_watermarks_and_ends_closed():
    relation, _ = meteo_pair(60, seed=4)
    elements = list(stream_def(relation, ReplayConfig(disorder=5, seed=11)).replay())
    watermarks = [e.value for e in elements if isinstance(e, Watermark)]
    assert len(watermarks) > 1
    assert watermarks == sorted(watermarks)
    assert isinstance(elements[-1], Watermark) and elements[-1].value == CLOSED


def test_negative_disorder_rejected():
    relation, _ = meteo_pair(10, seed=0)
    with pytest.raises(ValueError):
        arrival_order(relation, disorder=-1)
