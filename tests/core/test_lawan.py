"""Tests for LAWAN (negating-window computation), refereed by a queue-free re-scan."""

from __future__ import annotations

from repro import Schema, TPRelation, equi_join_on
from repro.core import (
    Window,
    WindowClass,
    lawan,
    negating_windows,
    overlap_join,
)
from repro.lineage import canonical, disjunction_of
from repro.temporal import Interval
from tests.conftest import make_random_relations


def _setup(positive_rows, negative_rows):
    positive = TPRelation.from_rows(Schema.of("K", "Id"), positive_rows, name="r")
    negative = TPRelation.from_rows(
        Schema.of("K", "Id"), negative_rows, events=positive.events, name="s"
    )
    theta = equi_join_on(positive.schema, negative.schema, [("K", "K")])
    return positive, negative, theta


def lawan_rescan(groups):
    """LAWAN without the priority queue: the referee for the queue-based sweep.

    For every elementary segment of an ``r`` tuple's interval (split at every
    start and end of a matching overlapping window) the active matches are
    re-scanned from scratch.  This is quadratic in the number of concurrent
    matches per tuple, but obviously correct; its windows must equal LAWAN's.
    """
    windows = []
    for group in groups:
        if not group.matches:
            continue
        r = group.r
        boundaries = set()
        for record in group.matches:
            boundaries.add(record.start)
            boundaries.add(record.end)
        ordered = sorted(boundaries)
        for start, end in zip(ordered, ordered[1:]):
            active = [
                record.s.lineage
                for record in group.matches
                if record.start <= start and end <= record.end
            ]
            if not active:
                continue
            windows.append(
                Window(
                    fact_r=r.fact,
                    fact_s=None,
                    start=start,
                    end=end,
                    lineage_r=r.lineage,
                    lineage_s=disjunction_of(active),
                    window_class=WindowClass.NEGATING,
                    source_start=r.start,
                    source_end=r.end,
                )
            )
    return windows


def _negating(positive_rows, negative_rows):
    positive, negative, theta = _setup(positive_rows, negative_rows)
    groups = overlap_join(positive, negative, theta)
    return [
        (w.interval, str(canonical(w.lineage_s))) for w in negating_windows(groups)
    ]


class TestSweepCases:
    def test_single_match_negates_over_the_intersection(self):
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)], [("k", "s0", "s0", 4, 6, 0.5)]
        )
        assert windows == [(Interval(4, 6), "s0")]

    def test_window_splits_when_a_second_match_starts(self):
        # The paper's Fig. 4 case 2: a new window at every starting point.
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)],
            [("k", "s0", "s0", 2, 8, 0.5), ("k", "s1", "s1", 4, 6, 0.5)],
        )
        assert windows == [
            (Interval(2, 4), "s0"),
            (Interval(4, 6), "s0 ∨ s1"),
            (Interval(6, 8), "s0"),
        ]

    def test_window_splits_when_a_match_ends(self):
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)],
            [("k", "s0", "s0", 1, 5, 0.5), ("k", "s1", "s1", 3, 9, 0.5)],
        )
        assert windows == [
            (Interval(1, 3), "s0"),
            (Interval(3, 5), "s0 ∨ s1"),
            (Interval(5, 9), "s1"),
        ]

    def test_gap_between_match_groups_produces_no_negating_window(self):
        # Fig. 4 case 3: a new group follows after a gap.
        windows = _negating(
            [("k", "r0", "r0", 0, 20, 0.5)],
            [("k", "s0", "s0", 1, 3, 0.5), ("k", "s1", "s1", 10, 12, 0.5)],
        )
        assert windows == [(Interval(1, 3), "s0"), (Interval(10, 12), "s1")]

    def test_matches_clipped_to_the_positive_interval(self):
        windows = _negating(
            [("k", "r0", "r0", 5, 8, 0.5)], [("k", "s0", "s0", 0, 20, 0.5)]
        )
        assert windows == [(Interval(5, 8), "s0")]

    def test_three_concurrent_matches(self):
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)],
            [
                ("k", "s0", "s0", 1, 9, 0.5),
                ("k", "s1", "s1", 2, 6, 0.5),
                ("k", "s2", "s2", 4, 8, 0.5),
            ],
        )
        assert windows == [
            (Interval(1, 2), "s0"),
            (Interval(2, 4), "s0 ∨ s1"),
            (Interval(4, 6), "s0 ∨ s1 ∨ s2"),
            (Interval(6, 8), "s0 ∨ s2"),
            (Interval(8, 9), "s0"),
        ]

    def test_no_matches_produce_no_negating_windows(self):
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)], [("x", "s0", "s0", 0, 10, 0.5)]
        )
        assert windows == []

    def test_identical_match_intervals_are_merged_into_one_window(self):
        windows = _negating(
            [("k", "r0", "r0", 0, 10, 0.5)],
            [("k", "s0", "s0", 3, 6, 0.5), ("k", "s1", "s1", 3, 6, 0.5)],
        )
        assert windows == [(Interval(3, 6), "s0 ∨ s1")]


class TestFullPipelineOutput:
    def test_wuon_contains_all_three_classes(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        wuon = lawan(groups)
        counts = {
            window_class: sum(1 for w in wuon if w.window_class is window_class)
            for window_class in WindowClass
        }
        assert counts[WindowClass.OVERLAPPING] == 2
        assert counts[WindowClass.UNMATCHED] == 2
        assert counts[WindowClass.NEGATING] == 3

    def test_negating_windows_lie_within_their_source_interval(self):
        positive, negative, theta = make_random_relations(21)
        groups = overlap_join(positive, negative, theta)
        for window in negating_windows(groups):
            assert window.source_interval.contains_interval(window.interval)
            assert window.fact_s is None
            assert window.lineage_s is not None

    def test_negating_windows_of_one_tuple_are_disjoint_and_ordered(self):
        positive, negative, theta = make_random_relations(22)
        groups = overlap_join(positive, negative, theta)
        for group in groups:
            intervals = [
                w.interval for w in negating_windows([group])
            ]
            for left, right in zip(intervals, intervals[1:]):
                assert left.end <= right.start


class TestQueueVersusRescan:
    def test_priority_queue_and_rescan_agree_on_the_paper_example(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        queue_based = {
            (w.interval, str(canonical(w.lineage_s))) for w in negating_windows(groups)
        }
        rescanned = {
            (w.interval, str(canonical(w.lineage_s))) for w in lawan_rescan(groups)
        }
        assert queue_based == rescanned

    def test_priority_queue_and_rescan_agree_on_random_inputs(self):
        for seed in range(6):
            positive, negative, theta = make_random_relations(seed, left_size=20, right_size=20)
            groups = overlap_join(positive, negative, theta)
            queue_based = {
                (w.fact_r, w.interval, str(canonical(w.lineage_s)))
                for w in negating_windows(groups)
            }
            rescanned = {
                (w.fact_r, w.interval, str(canonical(w.lineage_s)))
                for w in lawan_rescan(groups)
            }
            assert queue_based == rescanned
