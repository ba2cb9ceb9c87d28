"""Sets of disjoint intervals: the coverage referee of the window tests.

An :class:`IntervalSet` maintains a canonical (sorted, coalesced) collection
of disjoint intervals.  The LAWAU algorithm conceptually computes, per input
tuple of the positive relation, the complement of the union of its overlapping
windows within the tuple's own interval — exactly the ``complement_within``
operation provided here.  No code under ``src/`` needs it; the window and
interval tests check coverage with it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.temporal import Interval


class IntervalSet:
    """An immutable-by-convention set of disjoint, coalesced intervals."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: list[Interval] = _coalesce(intervals)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(self._intervals))

    def __repr__(self) -> str:
        parts = ", ".join(str(i) for i in self._intervals)
        return f"IntervalSet([{parts}])"

    def __contains__(self, time_point: int) -> bool:
        return any(time_point in interval for interval in self._intervals)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The disjoint intervals of the set in ascending order."""
        return tuple(self._intervals)

    @property
    def duration(self) -> int:
        """Total number of covered time points."""
        return sum(interval.duration for interval in self._intervals)

    def span(self) -> Optional[Interval]:
        """Smallest single interval covering the whole set (or ``None``)."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].start, self._intervals[-1].end)

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet([*self._intervals, *other._intervals])

    def add(self, interval: Interval) -> "IntervalSet":
        """Return a new set with ``interval`` added."""
        return IntervalSet([*self._intervals, interval])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection, computed by a merge over both sorted lists."""
        result: list[Interval] = []
        left, right = self._intervals, other._intervals
        i = j = 0
        while i < len(left) and j < len(right):
            overlap = left[i].intersect(right[j])
            if overlap is not None:
                result.append(overlap)
            if left[i].end <= right[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self \\ other``."""
        result: list[Interval] = []
        for interval in self._intervals:
            pieces = [interval]
            for hole in other._intervals:
                if hole.start >= interval.end:
                    break
                next_pieces: list[Interval] = []
                for piece in pieces:
                    next_pieces.extend(interval_difference(piece, hole))
                pieces = next_pieces
            result.extend(pieces)
        return IntervalSet(result)

    def complement_within(self, frame: Interval) -> "IntervalSet":
        """Return the parts of ``frame`` not covered by this set.

        This is the gap computation at the heart of unmatched-window
        derivation: given a tuple's full interval (the frame) and the
        intervals where it overlaps with matching tuples, the complement is
        exactly the set of unmatched sub-intervals.
        """
        return IntervalSet([frame]).difference(self)

    def covers(self, interval: Interval) -> bool:
        """Return ``True`` if every time point of ``interval`` is in the set."""
        return not IntervalSet([interval]).difference(self)

    def overlaps(self, interval: Interval) -> bool:
        """Return ``True`` if any time point of ``interval`` is in the set."""
        return bool(self.intersect(IntervalSet([interval])))


def interval_difference(interval: Interval, hole: Interval) -> list[Interval]:
    """The parts of ``interval`` not covered by ``hole``: zero, one or two
    intervals, ordered by start."""
    overlap = interval.intersect(hole)
    if overlap is None:
        return [interval]
    pieces: list[Interval] = []
    if interval.start < overlap.start:
        pieces.append(Interval(interval.start, overlap.start))
    if overlap.end < interval.end:
        pieces.append(Interval(overlap.end, interval.end))
    return pieces


def _coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Sort and merge overlapping or adjacent intervals."""
    ordered = sorted(intervals)
    merged: list[Interval] = []
    for interval in ordered:
        if merged and interval.start <= merged[-1].end:
            if interval.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, interval.end)
        else:
            merged.append(interval)
    return merged
