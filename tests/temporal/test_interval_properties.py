"""Property-based tests for the temporal substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import Interval, partition_by_validity, segments_within
from tests.temporal.intervalset import IntervalSet, interval_difference

interval_strategy = st.builds(
    lambda start, length: Interval(start, start + length),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
)

interval_lists = st.lists(interval_strategy, min_size=0, max_size=8)


@given(interval_strategy, interval_strategy)
def test_overlap_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(interval_strategy, interval_strategy)
def test_intersection_agrees_with_overlap(a, b):
    overlap = a.intersect(b)
    assert (overlap is not None) == a.overlaps(b)
    if overlap is not None:
        assert a.contains_interval(overlap)
        assert b.contains_interval(overlap)


@given(interval_strategy, interval_strategy)
def test_difference_and_intersection_partition_the_interval(a, b):
    pieces = interval_difference(a, b)
    overlap = a.intersect(b)
    total = sum(piece.duration for piece in pieces) + (overlap.duration if overlap else 0)
    assert total == a.duration


@given(interval_lists, interval_strategy)
def test_complement_within_is_disjoint_from_the_set(others, frame):
    covered = IntervalSet(others)
    gaps = covered.complement_within(frame)
    assert not covered.intersect(gaps)
    # gaps together with the covered-part-in-frame tile the frame
    inside = covered.intersect(IntervalSet([frame]))
    assert inside.duration + gaps.duration == frame.duration


@given(interval_lists, interval_strategy)
def test_interval_set_queries_agree_with_time_points(others, query):
    covered = IntervalSet(others)
    points = {point for other in others for point in other.time_points()}
    inside = [point in points for point in query.time_points()]
    assert covered.duration == len(points)
    assert covered.covers(query) == all(inside)
    assert covered.overlaps(query) == any(inside)


@given(interval_lists, interval_strategy)
def test_segments_within_always_tiles_the_frame(others, frame):
    pieces = segments_within(frame, others)
    assert pieces[0].start == frame.start
    assert pieces[-1].end == frame.end
    assert sum(piece.duration for piece in pieces) == frame.duration
    for left, right in zip(pieces, pieces[1:]):
        assert left.end == right.start


@given(interval_lists, interval_strategy)
@settings(max_examples=60)
def test_partition_by_validity_active_sets_are_correct(others, frame):
    for segment, active in partition_by_validity(frame, others):
        for index, other in enumerate(others):
            covers = other.contains_interval(segment)
            assert (index in active) == covers


@given(interval_lists, interval_strategy)
@settings(max_examples=60)
def test_partition_by_validity_is_maximal(others, frame):
    parts = partition_by_validity(frame, others)
    for (left_piece, left_active), (right_piece, right_active) in zip(parts, parts[1:]):
        if left_piece.end == right_piece.start:
            assert left_active != right_active
