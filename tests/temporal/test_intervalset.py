"""Tests for the interval-set referee in ``tests/temporal/intervalset.py``."""

from __future__ import annotations

from repro.temporal import Interval
from tests.temporal.intervalset import IntervalSet, interval_difference


class TestIntervalDifference:
    def test_no_overlap(self):
        assert interval_difference(Interval(2, 4), Interval(6, 8)) == [Interval(2, 4)]

    def test_hole_in_the_middle(self):
        assert interval_difference(Interval(2, 10), Interval(4, 6)) == [
            Interval(2, 4),
            Interval(6, 10),
        ]

    def test_covering(self):
        assert interval_difference(Interval(4, 6), Interval(2, 10)) == []

    def test_prefix(self):
        assert interval_difference(Interval(2, 8), Interval(1, 5)) == [Interval(5, 8)]


class TestConstruction:
    def test_empty_set(self):
        interval_set = IntervalSet()
        assert len(interval_set) == 0
        assert not interval_set
        assert interval_set.duration == 0
        assert interval_set.span() is None

    def test_coalesces_overlapping_inputs(self):
        interval_set = IntervalSet([Interval(1, 5), Interval(3, 8)])
        assert interval_set.intervals == (Interval(1, 8),)

    def test_coalesces_adjacent_inputs(self):
        interval_set = IntervalSet([Interval(1, 3), Interval(3, 6)])
        assert interval_set.intervals == (Interval(1, 6),)

    def test_keeps_disjoint_inputs_sorted(self):
        interval_set = IntervalSet([Interval(6, 8), Interval(1, 3)])
        assert interval_set.intervals == (Interval(1, 3), Interval(6, 8))

    def test_equality_and_hash(self):
        assert IntervalSet([Interval(1, 3), Interval(3, 5)]) == IntervalSet([Interval(1, 5)])
        assert hash(IntervalSet([Interval(1, 5)])) == hash(IntervalSet([Interval(1, 5)]))

    def test_membership_of_time_points(self):
        interval_set = IntervalSet([Interval(1, 3), Interval(6, 8)])
        assert 2 in interval_set
        assert 4 not in interval_set
        assert 6 in interval_set
        assert 8 not in interval_set


class TestAlgebra:
    def test_union(self):
        left = IntervalSet([Interval(1, 3)])
        right = IntervalSet([Interval(2, 6), Interval(9, 11)])
        assert left.union(right).intervals == (Interval(1, 6), Interval(9, 11))

    def test_add(self):
        assert IntervalSet([Interval(1, 3)]).add(Interval(5, 7)).intervals == (
            Interval(1, 3),
            Interval(5, 7),
        )

    def test_intersect(self):
        left = IntervalSet([Interval(1, 5), Interval(8, 12)])
        right = IntervalSet([Interval(3, 9)])
        assert left.intersect(right).intervals == (Interval(3, 5), Interval(8, 9))

    def test_intersect_empty(self):
        assert not IntervalSet([Interval(1, 3)]).intersect(IntervalSet([Interval(5, 7)]))

    def test_difference(self):
        left = IntervalSet([Interval(1, 10)])
        right = IntervalSet([Interval(2, 4), Interval(6, 7)])
        assert left.difference(right).intervals == (
            Interval(1, 2),
            Interval(4, 6),
            Interval(7, 10),
        )

    def test_difference_removes_everything(self):
        assert not IntervalSet([Interval(2, 4)]).difference(IntervalSet([Interval(1, 6)]))

    def test_complement_within_frame(self):
        covered = IntervalSet([Interval(4, 6), Interval(5, 8)])
        gaps = covered.complement_within(Interval(2, 10))
        assert gaps.intervals == (Interval(2, 4), Interval(8, 10))

    def test_complement_within_fully_covered_frame(self):
        assert not IntervalSet([Interval(0, 20)]).complement_within(Interval(3, 9))

    def test_complement_within_empty_set_is_frame(self):
        assert IntervalSet().complement_within(Interval(3, 9)).intervals == (Interval(3, 9),)

    def test_covers(self):
        interval_set = IntervalSet([Interval(1, 5), Interval(5, 9)])
        assert interval_set.covers(Interval(2, 8))
        assert not interval_set.covers(Interval(2, 10))

    def test_covers_not_across_a_gap(self):
        assert not IntervalSet([Interval(1, 3), Interval(4, 9)]).covers(Interval(2, 5))

    def test_overlaps(self):
        interval_set = IntervalSet([Interval(1, 3)])
        assert interval_set.overlaps(Interval(2, 8))
        assert not interval_set.overlaps(Interval(3, 8))

    def test_duration_sums_disjoint_pieces(self):
        assert IntervalSet([Interval(1, 3), Interval(5, 9)]).duration == 6

    def test_duration_counts_overlap_once(self):
        assert IntervalSet([Interval(1, 5), Interval(3, 7), Interval(10, 12)]).duration == 8

    def test_span_covers_gaps(self):
        assert IntervalSet([Interval(1, 3), Interval(8, 9)]).span() == Interval(1, 9)
