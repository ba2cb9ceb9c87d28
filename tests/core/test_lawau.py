"""Tests for LAWAU (unmatched-window computation).

The scenarios mirror the five cases of the paper's Fig. 3: gaps before the
first overlapping window, between overlapping windows, after the last one,
overlapping windows that already cover the sweep position, and tuples with no
overlap at all.
"""

from __future__ import annotations

from repro import Schema, TPRelation, equi_join_on
from repro.core import WindowClass, lawau, overlap_join
from repro.temporal import Interval
from tests.temporal.intervalset import IntervalSet
from tests.conftest import make_random_relations


def _setup(positive_rows, negative_rows):
    positive = TPRelation.from_rows(Schema.of("K", "Id"), positive_rows, name="r")
    negative = TPRelation.from_rows(
        Schema.of("K", "Id"), negative_rows, events=positive.events, name="s"
    )
    theta = equi_join_on(positive.schema, negative.schema, [("K", "K")])
    return positive, negative, theta


def _unmatched_intervals(positive_rows, negative_rows):
    positive, negative, theta = _setup(positive_rows, negative_rows)
    groups = overlap_join(positive, negative, theta)
    return [w.interval for w in lawau(groups) if w.window_class is WindowClass.UNMATCHED]


class TestSweepCases:
    def test_gap_before_first_overlap(self):
        # r = [0,10), s = [6,12): unmatched prefix [0,6).
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 0, 10, 0.5)], [("k", "s0", "s0", 6, 12, 0.5)]
        )
        assert intervals == [Interval(0, 6)]

    def test_gap_after_last_overlap(self):
        # r = [0,10), s = [0,4): unmatched tail [4,10).
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 0, 10, 0.5)], [("k", "s0", "s0", 0, 4, 0.5)]
        )
        assert intervals == [Interval(4, 10)]

    def test_gap_between_two_overlaps(self):
        # r = [0,10), s1 = [1,3), s2 = [6,8): gaps [0,1), [3,6), [8,10).
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 0, 10, 0.5)],
            [("k", "s0", "s0", 1, 3, 0.5), ("k", "s1", "s1", 6, 8, 0.5)],
        )
        assert intervals == [Interval(0, 1), Interval(3, 6), Interval(8, 10)]

    def test_overlapping_matches_leave_no_gap(self):
        # Two matches that together cover r completely: no unmatched windows.
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 2, 9, 0.5)],
            [("k", "s0", "s0", 0, 6, 0.5), ("k", "s1", "s1", 5, 12, 0.5)],
        )
        assert intervals == []

    def test_contained_match_produces_two_gaps(self):
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 0, 10, 0.5)], [("k", "s0", "s0", 4, 6, 0.5)]
        )
        assert intervals == [Interval(0, 4), Interval(6, 10)]

    def test_no_match_at_all_yields_full_interval(self):
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 0, 10, 0.5)], [("other", "s0", "s0", 0, 10, 0.5)]
        )
        assert intervals == [Interval(0, 10)]

    def test_match_covering_whole_tuple_yields_nothing(self):
        intervals = _unmatched_intervals(
            [("k", "r0", "r0", 3, 7, 0.5)], [("k", "s0", "s0", 0, 10, 0.5)]
        )
        assert intervals == []


class TestWuoOutput:
    def test_wuo_copies_all_overlapping_windows(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        wuo = lawau(groups)
        overlapping = [w for w in wuo if w.window_class is WindowClass.OVERLAPPING]
        unmatched = [w for w in wuo if w.window_class is WindowClass.UNMATCHED]
        assert len(overlapping) == 2
        assert len(unmatched) == 2
        assert not [w for w in wuo if w.window_class is WindowClass.NEGATING]

    def test_windows_of_each_group_are_emitted_in_temporal_order(self):
        positive, negative, theta = make_random_relations(5)
        groups = overlap_join(positive, negative, theta)
        for group in groups:
            produced = lawau([group])
            unmatched = [w.interval for w in produced if w.window_class is WindowClass.UNMATCHED]
            assert unmatched == sorted(unmatched)

    def test_unmatched_windows_never_overlap_a_match(self):
        positive, negative, theta = make_random_relations(9)
        groups = overlap_join(positive, negative, theta)
        by_group = {id(group): group for group in groups}
        for group in groups:
            covered = IntervalSet([record.interval for record in group.matches])
            for window in lawau([group]):
                if window.window_class is WindowClass.UNMATCHED:
                    assert not covered.overlaps(window.interval)
                    assert group.r.interval.contains_interval(window.interval)

    def test_unmatched_windows_are_maximal(self):
        positive, negative, theta = make_random_relations(11)
        groups = overlap_join(positive, negative, theta)
        for group in groups:
            gaps = [
                w.interval for w in lawau([group]) if w.window_class is WindowClass.UNMATCHED
            ]
            # no two gaps of the same tuple may be adjacent (they would not be maximal)
            for left, right in zip(gaps, gaps[1:]):
                assert left.end < right.start
