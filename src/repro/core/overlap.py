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
followed by a per-partition sort-merge over interval start points; for a
general θ it falls back to a nested loop.  Either way the produced window
stream per ``r`` tuple is ordered by overlap start, the order required by the
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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
    groups = [OverlapGroup(r) for r in positive]
    if theta.is_equi:
        _pair_equi(groups, negative, theta)
    else:
        _pair_nested_loop(groups, negative, theta)
    for group in groups:
        group.matches.sort(key=_match_order)
    return groups


def iter_overlap_records(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> Iterator[OverlapRecord]:
    """Pipelined variant: yield the outer-join rows group by group."""
    for group in overlap_join(positive, negative, theta):
        yield from group.records()


def _match_order(record: OverlapRecord) -> tuple:
    assert record.s is not None
    return (record.interval.start, record.interval.end, record.s.key())


def _pair_equi(
    groups: list[OverlapGroup], negative: TPRelation, theta: ThetaCondition
) -> None:
    """Hash-partition both inputs on the join key, then merge per partition."""
    partitions: dict[object, list[TPTuple]] = {}
    for s in negative:
        partitions.setdefault(theta.right_key(s), []).append(s)
    for bucket in partitions.values():
        bucket.sort(key=lambda t: (t.start, t.end))
    for group in groups:
        key = theta.left_key(group.r)
        bucket = partitions.get(key)
        if not bucket:
            continue
        _merge_bucket(group, bucket, theta)


def _merge_bucket(
    group: OverlapGroup, bucket: list[TPTuple], theta: ThetaCondition
) -> None:
    """Collect overlaps of ``group.r`` against a start-sorted bucket."""
    r = group.r
    for s in bucket:
        if s.start >= r.end:
            break
        overlap = r.interval.intersect(s.interval)
        if overlap is None:
            continue
        # For composite equi-keys the hash key already guarantees θ, but a
        # general ThetaCondition may carry extra non-equality conjuncts, so
        # the predicate is still evaluated.
        if theta.evaluate(r, s):
            group.matches.append(OverlapRecord(r, s, overlap))


def _pair_nested_loop(
    groups: list[OverlapGroup], negative: TPRelation, theta: ThetaCondition
) -> None:
    """General-θ pairing: compare every (r, s) pair."""
    negative_sorted = sorted(negative, key=lambda t: (t.start, t.end))
    for group in groups:
        r = group.r
        for s in negative_sorted:
            if s.start >= r.end:
                break
            overlap = r.interval.intersect(s.interval)
            if overlap is None:
                continue
            if theta.evaluate(r, s):
                group.matches.append(OverlapRecord(r, s, overlap))


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
