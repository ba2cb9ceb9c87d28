"""Endpoint timelines and segmentation.

Both the lineage-aware window algorithms and the Temporal Alignment baseline
reason about the *change points* of a set of intervals: the time points at
which some tuple starts or stops being valid.  Between two consecutive change
points nothing changes, so any per-time-point definition (such as the window
definitions of the paper's Table I) can be evaluated segment by segment.

This module provides the segmentation primitives shared by the naive oracle,
the Temporal Alignment baseline and several tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .interval import Interval


def _change_points(intervals: Iterable[Interval]) -> list[int]:
    """Return the sorted, de-duplicated start and end points of ``intervals``."""
    points: set[int] = set()
    for interval in intervals:
        points.add(interval.start)
        points.add(interval.end)
    return sorted(points)


def segments_within(frame: Interval, intervals: Iterable[Interval]) -> list[Interval]:
    """Return the elementary segments of ``frame`` induced by ``intervals``.

    Only the change points strictly inside ``frame`` split it; the result is a
    partition of ``frame``.  This is the segmentation used to derive negating
    windows: the interval of a tuple of the positive relation is split at
    every start or end of a matching tuple of the negative relation.
    """
    return frame.split_at_points(_change_points(intervals))


def partition_by_validity(
    frame: Interval, others: Sequence[Interval]
) -> list[tuple[Interval, tuple[int, ...]]]:
    """Partition ``frame`` into segments with a constant set of valid ``others``.

    Returns ``(segment, active_indexes)`` pairs in temporal order, where
    ``active_indexes`` are the positions in ``others`` of the intervals that
    cover the whole segment.  Segments are maximal: consecutive segments have
    different active sets.
    """
    relevant = [other for other in others if other.overlaps(frame)]
    pieces = segments_within(frame, relevant)
    raw: list[tuple[Interval, tuple[int, ...]]] = []
    for piece in pieces:
        active = tuple(
            index for index, other in enumerate(others) if other.contains_interval(piece)
        )
        raw.append((piece, active))
    # Merge consecutive segments with identical active sets so the result is
    # maximal (the window definitions require maximality).
    merged: list[tuple[Interval, tuple[int, ...]]] = []
    for piece, active in raw:
        if merged and merged[-1][1] == active and merged[-1][0].end == piece.start:
            merged[-1] = (Interval(merged[-1][0].start, piece.end), active)
        else:
            merged.append((piece, active))
    return merged
