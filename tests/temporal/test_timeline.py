"""Tests for repro.temporal.timeline."""

from __future__ import annotations

from repro.temporal import (
    Interval,
    partition_by_validity,
    segments_within,
)


class TestSegments:
    def test_segments_within_frame(self):
        pieces = segments_within(Interval(2, 8), [Interval(4, 6), Interval(5, 9)])
        assert pieces == [Interval(2, 4), Interval(4, 5), Interval(5, 6), Interval(6, 8)]

    def test_segments_within_without_interior_points(self):
        assert segments_within(Interval(2, 8), [Interval(0, 10)]) == [Interval(2, 8)]

    def test_segments_within_partition_covers_frame(self):
        frame = Interval(0, 12)
        pieces = segments_within(frame, [Interval(3, 5), Interval(5, 9), Interval(1, 2)])
        assert pieces[0].start == frame.start
        assert pieces[-1].end == frame.end
        for left, right in zip(pieces, pieces[1:]):
            assert left.end == right.start


class TestPartitionByValidity:
    def test_paper_example_segmentation(self):
        # a1 = [2,8) against b3 = [4,6) and b2 = [5,8): the segmentation that
        # produces the unmatched window [2,4) and the negating windows
        # [4,5), [5,6), [6,8) of Fig. 1b.
        frame = Interval(2, 8)
        others = [Interval(4, 6), Interval(5, 8)]
        parts = partition_by_validity(frame, others)
        assert parts == [
            (Interval(2, 4), ()),
            (Interval(4, 5), (0,)),
            (Interval(5, 6), (0, 1)),
            (Interval(6, 8), (1,)),
        ]

    def test_no_others_yields_single_segment(self):
        assert partition_by_validity(Interval(1, 5), []) == [(Interval(1, 5), ())]

    def test_merges_consecutive_segments_with_equal_active_sets(self):
        # The second interval does not overlap the frame at all, so its
        # endpoints must not fragment the frame.
        parts = partition_by_validity(Interval(1, 5), [Interval(0, 10), Interval(20, 30)])
        assert parts == [(Interval(1, 5), (0,))]

    def test_partition_covers_frame_exactly(self):
        frame = Interval(0, 15)
        others = [Interval(2, 5), Interval(4, 9), Interval(11, 20)]
        parts = partition_by_validity(frame, others)
        assert parts[0][0].start == frame.start
        assert parts[-1][0].end == frame.end
        assert sum(piece.duration for piece, _active in parts) == frame.duration
