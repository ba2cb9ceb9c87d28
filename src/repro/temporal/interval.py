"""Half-open time intervals.

The temporal-probabilistic data model of Papaioannou et al. attaches a
half-open validity interval ``[start, end)`` to every tuple.  Intervals are
defined over a discrete, totally ordered time domain; in this library the
domain is the integers (the paper's examples use day numbers), but any
comparable, subtractable type works for the non-arithmetic operations.

The :class:`Interval` class is immutable and hashable so it can be used as a
dictionary key, stored in sets and shared freely between tuples and windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..values import reduce_fields, writer


class IntervalError(ValueError):
    """Raised when an interval is constructed or combined incorrectly."""

    @classmethod
    def empty(cls, start, end) -> "IntervalError":
        """The error for bounds ``[start, end)`` that hold no time point."""
        return cls(f"interval end must be greater than start, got [{start}, {end})")


_new = object.__new__


@dataclass(frozen=True, slots=True, order=True, init=False)
class Interval:
    """A half-open interval ``[start, end)`` over a discrete time domain.

    The ordering of intervals is lexicographic on ``(start, end)``, which is
    the order used by the sweeping algorithms (LAWAU / LAWAN) of the paper.

    Attributes:
        start: inclusive starting time point.
        end: exclusive ending time point; must be strictly greater than
            ``start`` (empty intervals are not representable on purpose —
            an "empty" result is modelled as ``None``).
    """

    start: int
    end: int

    def __new__(cls, start: int, end: int) -> "Interval":
        if end <= start:
            raise IntervalError.empty(start, end)
        self = _new(_Writer)
        self.start = start
        self.end = end
        self.__class__ = Interval
        return self

    __reduce__ = reduce_fields

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> int:
        """Number of time points covered by the interval."""
        return self.end - self.start

    def __contains__(self, time_point: int) -> bool:
        return self.start <= time_point < self.end

    def contains_interval(self, other: "Interval") -> bool:
        """Return ``True`` if ``other`` lies fully within this interval."""
        return self.start <= other.start and other.end <= self.end

    def time_points(self) -> Iterator[int]:
        """Iterate over the individual time points of the interval.

        Only meaningful (and only used) for integer time domains; the naive
        per-time-point baseline relies on it.
        """
        return iter(range(self.start, self.end))

    # ------------------------------------------------------------------ #
    # relationships and combination
    # ------------------------------------------------------------------ #
    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` if the two intervals share at least one time point."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Return the intersection, or ``None`` if the intervals are disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start < end:
            return Interval(start, end)
        return None

    def split_at_points(self, points: Iterable[int]) -> list["Interval"]:
        """Split the interval at every interior point of ``points``.

        The result is ordered by start and covers exactly this interval.
        """
        interior = sorted({p for p in points if self.start < p < self.end})
        pieces: list[Interval] = []
        current_start = self.start
        for point in interior:
            pieces.append(Interval(current_start, point))
            current_start = point
        pieces.append(Interval(current_start, self.end))
        return pieces

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        return f"[{self.start},{self.end})"

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"


_Writer = writer(Interval)
