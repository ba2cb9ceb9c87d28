"""Overlapping-window computation (the conventional outer join step).

The NJ pipeline starts by evaluating the conventional left outer join
``r ⟕_{θo ∧ θ} s`` with the overlap predicate ``θo : r.T ∩ s.T ≠ ∅`` and the
join condition θ on the non-temporal attributes.  Its result contains

* one **overlapping window** per matching pair ``(r, s)`` whose intervals
  overlap, spanning exactly ``r.T ∩ s.T``, and
* one **unmatched window** for every ``r`` tuple that matches *no* ``s``
  tuple at all, spanning ``r``'s full interval

and, crucially, every window is "enhanced with the initial time-interval of
the tuple of r valid over [it]" so the later sweeps can work with it without
going back to the base relation.  In this implementation the enhancement is
the :attr:`Window.source_interval` field, and windows are additionally kept
grouped per originating ``r`` tuple (the paper's grouping by ``Fr`` and the
initial interval), which is what both LAWAU and LAWAN consume.

For equi-join conditions the pairing uses hash partitioning on the join key
followed by a per-partition sort-merge over interval start points; a general
θ is the same merge over one partition holding all of ``s``.  A partition is
sorted by ``(start, end)`` once and indexed by two columns: its **starts**,
and its **reach** — the running maximum of the ends, which unlike the ends
themselves is non-decreasing.  For an ``r`` tuple, every ``s`` before
``bisect_right(reach, r.start)`` has ended by ``r.start`` and every ``s``
from ``bisect_left(starts, r.end)`` on starts at or after ``r.end``; only the
slice between the two is looked at, so a pass costs the partition's sort plus
the candidates that can overlap, not a prefix scan of the partition per ``r``
tuple.  Either way the produced window stream per ``r`` tuple is ordered by
overlap start (:func:`sort_matches`), the order required by the sweeps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Hashable, Iterable, Iterator, Optional

from ..relation import TPRelation, TPTuple, ThetaCondition
from ..temporal import Interval
from .windows import Window, WindowClass


@dataclass(frozen=True, slots=True)
class OverlapRecord:
    """One row of the conventional outer join ``r ⟕_{θo ∧ θ} s``.

    ``s`` is ``None`` for the rows padded by the outer join (an ``r`` tuple
    with no overlapping, θ-matching partner), in which case ``interval`` is
    ``r``'s full interval.
    """

    r: TPTuple
    s: Optional[TPTuple]
    interval: Interval

    @property
    def is_unmatched(self) -> bool:
        """Whether this record is an outer-join padded (unmatched) row."""
        return self.s is None

    def to_window(self) -> Window:
        """Render the record as a generalized lineage-aware temporal window."""
        if self.s is None:
            return Window(
                fact_r=self.r.fact,
                fact_s=None,
                interval=self.interval,
                lineage_r=self.r.lineage,
                lineage_s=None,
                window_class=WindowClass.UNMATCHED,
                source_interval=self.r.interval,
            )
        return Window(
            fact_r=self.r.fact,
            fact_s=self.s.fact,
            interval=self.interval,
            lineage_r=self.r.lineage,
            lineage_s=self.s.lineage,
            window_class=WindowClass.OVERLAPPING,
            source_interval=self.r.interval,
        )


@dataclass(slots=True)
class OverlapGroup:
    """All overlap records of one ``r`` tuple, ordered by overlap start.

    ``matches`` is empty exactly when the ``r`` tuple is fully unmatched; in
    that case the conventional outer join emits a single padded record, which
    :meth:`records` reproduces.
    """

    r: TPTuple
    matches: list[OverlapRecord] = field(default_factory=list)

    def records(self) -> list[OverlapRecord]:
        """The outer-join rows for this group (padded row when no matches)."""
        if not self.matches:
            return [OverlapRecord(self.r, None, self.r.interval)]
        return list(self.matches)

    def match_count(self) -> int:
        return len(self.matches)


#: One partition of ``s``: its tuples sorted by ``(start, end)``, their
#: starts, and the running maximum of their ends.
_Bucket = tuple[list[TPTuple], list[int], list[int]]


def overlap_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[OverlapGroup]:
    """Compute the conventional outer join ``r ⟕_{θo ∧ θ} s`` grouped by ``r`` tuple.

    Groups preserve the iteration order of ``positive``; matches within a
    group are ordered by overlap start (ties broken by overlap end and the
    negative tuple's fact) — the order LAWAU and LAWAN require.
    """
    if theta.is_equi:
        left_key, right_key = theta.left_key, theta.right_key
    else:
        # General θ: every pair is a candidate, so all of s is one partition.
        left_key = right_key = _whole_relation
    partitions: dict[Hashable, list[TPTuple]] = {}
    for s in negative:
        partitions.setdefault(right_key(s), []).append(s)
    buckets = {key: _index_bucket(bucket) for key, bucket in partitions.items()}
    groups = [OverlapGroup(r) for r in positive]
    for group in groups:
        bucket = buckets.get(left_key(group.r))
        if bucket is not None:
            _merge_bucket(group, bucket, theta)
            sort_matches(group.matches)
    return groups


def iter_overlap_records(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> Iterator[OverlapRecord]:
    """Pipelined variant: yield the outer-join rows group by group."""
    for group in overlap_join(positive, negative, theta):
        yield from group.records()


def _whole_relation(tp_tuple: TPTuple) -> Hashable:
    return None


def _bounds(item: TPTuple | OverlapRecord) -> tuple[int, int]:
    """The sort key both orders start from: the item's ``(start, end)``."""
    interval = item.interval
    return (interval.start, interval.end)


def _index_bucket(bucket: list[TPTuple]) -> _Bucket:
    """Sort one partition by ``(start, end)`` and build its two columns."""
    bucket.sort(key=_bounds)
    starts = [s.interval.start for s in bucket]
    reach = list(accumulate((s.interval.end for s in bucket), max))
    return bucket, starts, reach


def _merge_bucket(group: OverlapGroup, bucket: _Bucket, theta: ThetaCondition) -> None:
    """Collect the overlaps of ``group.r`` within one indexed partition."""
    tuples, starts, reach = bucket
    r = group.r
    r_start, r_end = _bounds(r)
    matches = group.matches
    for index in range(bisect_right(reach, r_start), bisect_left(starts, r_end)):
        s = tuples[index]
        s_end = s.interval.end
        # Inside the slice a tuple starts before r ends; it may still have
        # ended before r starts (the reach is a maximum, not its own end).
        if s_end <= r_start:
            continue
        # The key already guarantees an equi-θ, except where dictionary
        # lookup and ``==`` disagree (a ``nan`` is found by identity but
        # equals nothing), and a general θ decides nothing before this.
        if theta.evaluate(r, s):
            s_start = starts[index]
            matches.append(
                OverlapRecord(
                    r,
                    s,
                    Interval(
                        s_start if s_start > r_start else r_start,
                        s_end if s_end < r_end else r_end,
                    ),
                )
            )


def _negative_key(record: OverlapRecord) -> tuple:
    return record.s.key()


def sort_matches(matches: list[OverlapRecord]) -> None:
    """Sort one group's overlap records into sweep order, in place.

    The total order is overlap start, then end, then the negative tuple's
    rendered :meth:`~repro.relation.TPTuple.key` — but the key is rendered
    only for records that tie on ``(start, end)``.  Both sorts are stable,
    so records that tie on the full key keep their relative order exactly as
    one three-component sort would leave them.
    """
    if len(matches) < 2:
        return
    matches.sort(key=_bounds)
    bounds = [_bounds(record) for record in matches]
    if len(set(bounds)) == len(bounds):
        return
    first = 0
    for _tied, run in groupby(bounds):
        last = first + len(list(run))
        if last - first > 1:
            matches[first:last] = sorted(matches[first:last], key=_negative_key)
        first = last


def iter_overlapping(groups: Iterable[OverlapGroup]) -> Iterator[Window]:
    """Pipelined WO: the overlap records themselves as windows, no sweep."""
    for group in groups:
        for record in group.matches:
            yield record.to_window()


def overlapping_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[Window]:
    """Only the overlapping windows ``WO(r; s, θ)``."""
    return list(iter_overlapping(overlap_join(positive, negative, theta)))
