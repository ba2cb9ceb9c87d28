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
the window's ``source_start``/``source_end`` fields, and windows are additionally kept
grouped per originating ``r`` tuple (the paper's grouping by ``Fr`` and the
initial interval), which is what both LAWAU and LAWAN consume.

LAWAU and LAWAN consume one group at a time, so the groups are yielded as
they are formed (:func:`iter_overlap_join`): ``s`` is partitioned and
indexed up front, then each ``r`` tuple's group is merged, sorted and handed
on before the next ``r`` tuple is read.  A consumer that drops each group
once its outputs are formed keeps one group's records alive, not the whole
join's; :func:`overlap_join` lists every group, for callers that need them
all at once.

For equi-join conditions the pairing uses hash partitioning on the join key
followed by a per-partition sort-merge over interval start points, and the
key decides θ (a key holding ``nan`` is never indexed or probed); a general
θ is the same merge over one partition holding all of ``s``, evaluating θ on
every candidate.  A partition is sorted by ``(start, end)`` once and indexed
by two columns: its **starts**, and its **reach** — the running maximum of
the ends, which unlike the ends themselves is non-decreasing.  For an ``r``
tuple, every ``s`` before ``bisect_right(reach, r.start)`` has ended by
``r.start`` and every ``s`` from ``bisect_left(starts, r.end)`` on starts at
or after ``r.end``; only the slice between the two is looked at, so a pass
costs the partition's sort plus the candidates that can overlap, not a
prefix scan of the partition per ``r`` tuple.  Either way the produced
window stream per ``r`` tuple is ordered by overlap start
(:func:`sort_matches`, which sorts by a C-level ``attrgetter``), the
order required by the sweeps.

The merge writes each :class:`OverlapRecord` and :class:`OverlapGroup` in
place (:mod:`repro.values`) rather than calling a constructor per record or
group; the stream maintainer's hot sites build theirs the same way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator

from ..relation import TPRelation, TPTuple, ThetaCondition
from ..relation.predicates import matchable
from ..temporal import Interval
from ..values import reduce_fields, writer
from .windows import Span, Window, WindowClass, span_windows

_new = object.__new__


@dataclass(frozen=True, slots=True, init=False)
class OverlapRecord:
    """One matched row of the conventional outer join ``r ⟕_{θo ∧ θ} s``.

    ``[start, end)`` is ``r.T ∩ s.T``, which its builders have already
    found non-empty.  The row the outer join pads for an ``r`` tuple without
    partners is no record (see :class:`OverlapGroup`).
    """

    r: TPTuple
    s: TPTuple
    start: int
    end: int

    def __new__(cls, r: TPTuple, s: TPTuple, start: int, end: int) -> "OverlapRecord":
        self = _new(_RecordWriter)
        self.r = r
        self.s = s
        self.start = start
        self.end = end
        self.__class__ = OverlapRecord
        return self

    __reduce__ = reduce_fields

    @property
    def interval(self) -> Interval:
        """The overlap ``[start, end)``, built on each access."""
        return Interval(self.start, self.end)


_RecordWriter = writer(OverlapRecord)


@dataclass(slots=True, init=False)
class OverlapGroup:
    """All overlap records of one ``r`` tuple, ordered by overlap start.

    ``matches`` is empty exactly when the ``r`` tuple is fully unmatched; the
    single row the conventional outer join pads for it is the unmatched span
    over ``r.T`` that :func:`repro.core.lawau.gap_sweep` yields.  The
    overlap join and the stream maintainer write the two fields of a bare
    instance; the constructor is for everyone else.
    """

    r: TPTuple
    matches: list[OverlapRecord]

    def __new__(cls, r: TPTuple, matches: list[OverlapRecord] | None = None) -> "OverlapGroup":
        self = _new(cls)
        self.r = r
        self.matches = [] if matches is None else matches
        return self

    __reduce__ = reduce_fields


#: One partition of ``s``: its tuples sorted by ``(start, end)``, their
#: starts, and the running maximum of their ends.
_Bucket = tuple[list[TPTuple], list[int], list[int]]


def overlap_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[OverlapGroup]:
    """Every group of :func:`iter_overlap_join`, materialised in one list."""
    return list(iter_overlap_join(positive, negative, theta))


def iter_overlap_join(
    positive: Iterable[TPTuple],
    negative: TPRelation,
    theta: ThetaCondition,
) -> Iterator[OverlapGroup]:
    """Compute the conventional outer join ``r ⟕_{θo ∧ θ} s`` grouped by ``r`` tuple.

    ``negative`` is partitioned and indexed up front; ``positive`` is then
    read one tuple at a time, and each group is yielded as soon as its
    records are merged and sorted, so a consumer that drops a group frees
    its records before the next one is built.  Groups preserve the
    iteration order of ``positive``; matches within a group are ordered by
    overlap start (ties broken by overlap end and the negative tuple's
    fact) — the order LAWAU and LAWAN require.
    """
    if theta.is_equi:
        left_key, right_key, check = theta.left_key, theta.right_key, None
    else:
        # General θ: every pair is a candidate, so all of s is one partition
        # and θ decides each pair.
        left_key = right_key = _whole_relation
        check = theta.evaluate
    partitions: dict[Hashable, list[TPTuple]] = {}
    for s in negative:
        key = right_key(s)
        if matchable(key):
            partitions.setdefault(key, []).append(s)
    buckets = {key: _index_bucket(bucket) for key, bucket in partitions.items()}
    for r in positive:
        group = _new(OverlapGroup)
        group.r = r
        group.matches = []
        key = left_key(r)
        bucket = buckets.get(key) if matchable(key) else None
        if bucket is not None:
            _merge_bucket(group, bucket, check)
            sort_matches(group.matches)
        yield group


def _whole_relation(tp_tuple: TPTuple) -> tuple:
    return ()


#: The sort key both orders start from: an item's ``(start, end)``.
_bounds = attrgetter("start", "end")


def _index_bucket(bucket: list[TPTuple]) -> _Bucket:
    """Sort one partition by ``(start, end)`` and build its two columns."""
    bucket.sort(key=_bounds)
    starts = [s.start for s in bucket]
    reach = list(accumulate((s.end for s in bucket), max))
    return bucket, starts, reach


def _merge_bucket(
    group: OverlapGroup,
    bucket: _Bucket,
    check: Callable[[TPTuple, TPTuple], bool] | None,
) -> None:
    """Collect the overlaps of ``group.r`` within one indexed partition.

    ``check`` is a general θ's test of each candidate pair; ``None`` when
    the partition key has decided θ already.
    """
    tuples, starts, reach = bucket
    r = group.r
    r_start, r_end = r.start, r.end
    append = group.matches.append
    for index in range(bisect_right(reach, r_start), bisect_left(starts, r_end)):
        s = tuples[index]
        s_end = s.end
        # Inside the slice a tuple starts before r ends; it may still have
        # ended before r starts (the reach is a maximum, not its own end).
        if s_end <= r_start:
            continue
        if check is None or check(r, s):
            s_start = starts[index]
            record = _new(_RecordWriter)
            record.r = r
            record.s = s
            record.start = s_start if s_start > r_start else r_start
            record.end = s_end if s_end < r_end else r_end
            record.__class__ = OverlapRecord
            append(record)


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
    bounds = list(map(_bounds, matches))
    if len(set(bounds)) == len(bounds):
        return
    first = 0
    for _tied, run in groupby(bounds):
        last = first + len(list(run))
        if last - first > 1:
            matches[first:last] = sorted(matches[first:last], key=_negative_key)
        first = last


def overlap_spans(group: OverlapGroup) -> Iterator[Span]:
    """One group's WO spans: its overlap records themselves, no sweep."""
    for record in group.matches:
        s = record.s
        yield WindowClass.OVERLAPPING, record.start, record.end, s.fact, s.lineage


def overlapping_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
) -> list[Window]:
    """Only the overlapping windows ``WO(r; s, θ)``."""
    return [
        window
        for group in iter_overlap_join(positive, negative, theta)
        for window in span_windows(group.r, overlap_spans(group))
    ]
