"""Tests for repro.temporal.interval."""

from __future__ import annotations

import pytest

from repro.temporal import Interval, IntervalError


class TestConstruction:
    def test_valid_interval(self):
        interval = Interval(2, 8)
        assert interval.start == 2
        assert interval.end == 8

    def test_empty_interval_rejected(self):
        with pytest.raises(IntervalError):
            Interval(5, 5)

    def test_inverted_interval_rejected(self):
        with pytest.raises(IntervalError):
            Interval(7, 3)

    def test_negative_times_allowed(self):
        interval = Interval(-5, -1)
        assert interval.duration == 4

    def test_intervals_are_hashable_and_equal_by_value(self):
        assert Interval(1, 3) == Interval(1, 3)
        assert hash(Interval(1, 3)) == hash(Interval(1, 3))
        assert len({Interval(1, 3), Interval(1, 3), Interval(1, 4)}) == 2

    def test_ordering_is_lexicographic(self):
        assert sorted([Interval(3, 5), Interval(1, 9), Interval(1, 2)]) == [
            Interval(1, 2),
            Interval(1, 9),
            Interval(3, 5),
        ]

    def test_str_uses_half_open_notation(self):
        assert str(Interval(4, 6)) == "[4,6)"


class TestMembership:
    def test_contains_start_point(self):
        assert 2 in Interval(2, 8)

    def test_excludes_end_point(self):
        assert 8 not in Interval(2, 8)

    def test_contains_interior_point(self):
        assert 5 in Interval(2, 8)

    def test_duration_counts_time_points(self):
        assert Interval(7, 10).duration == 3

    def test_time_points_enumeration(self):
        assert list(Interval(4, 7).time_points()) == [4, 5, 6]

    def test_contains_interval(self):
        assert Interval(2, 8).contains_interval(Interval(3, 5))
        assert Interval(2, 8).contains_interval(Interval(2, 8))
        assert not Interval(2, 8).contains_interval(Interval(1, 5))
        assert not Interval(2, 8).contains_interval(Interval(5, 9))


class TestRelationships:
    def test_overlaps_true_on_partial_overlap(self):
        assert Interval(2, 8).overlaps(Interval(5, 10))

    def test_overlaps_false_when_adjacent(self):
        assert not Interval(2, 5).overlaps(Interval(5, 8))

    def test_overlaps_false_when_disjoint(self):
        assert not Interval(2, 4).overlaps(Interval(6, 8))

    def test_overlaps_is_symmetric(self):
        assert Interval(5, 10).overlaps(Interval(2, 8))


class TestCombination:
    def test_intersect_overlapping(self):
        assert Interval(2, 8).intersect(Interval(5, 10)) == Interval(5, 8)

    def test_intersect_contained(self):
        assert Interval(2, 8).intersect(Interval(4, 6)) == Interval(4, 6)

    def test_intersect_disjoint_is_none(self):
        assert Interval(2, 4).intersect(Interval(6, 8)) is None

    def test_intersect_adjacent_is_none(self):
        assert Interval(2, 4).intersect(Interval(4, 8)) is None

    def test_split_at_points(self):
        pieces = Interval(2, 10).split_at_points([4, 7, 0, 12, 4])
        assert pieces == [Interval(2, 4), Interval(4, 7), Interval(7, 10)]

    def test_split_at_points_none_interior(self):
        assert Interval(2, 5).split_at_points([0, 7]) == [Interval(2, 5)]

    def test_split_at_points_on_the_boundaries_is_noop(self):
        assert Interval(2, 8).split_at_points([2, 8]) == [Interval(2, 8)]
