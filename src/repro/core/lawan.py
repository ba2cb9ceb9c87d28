"""LAWAN — Lineage-Aware Window Algorithm for Negating windows.

LAWAN extends the set ``WUO`` produced by LAWAU (all overlapping and
unmatched windows, grouped per positive-relation tuple and ordered by start)
with the **negating windows**: for every maximal sub-interval of an ``r``
tuple during which the set of valid, θ-matching ``s`` tuples is constant and
non-empty, a window carrying the disjunction of those tuples' lineages.

The sweep follows the paper's description:

* windows are processed group by group (same ``Fr`` / same originating ``r``
  tuple) in start order;
* a **priority queue** keyed on interval end point holds the lineages of the
  ``s`` tuples whose overlapping windows are currently "active";
* a new negating window is emitted at every starting and ending point within
  the group — i.e. whenever an ``s`` tuple starts or stops being valid — with
  ``λs`` equal to the disjunction of the lineages currently in the queue
  (the paper's Fig. 4 cases: the next boundary is either the next window's
  start, the smallest end point in the queue, or the start of a new group);
* unmatched and overlapping windows of ``WUO`` are copied to the output
  unchanged, interleaved with the negating windows they give rise to.

The sweep, :func:`negating_sweep`, is written once and yields bare
:data:`~repro.core.windows.Span` records ``(window_class, start, end,
fact_s, lineage_s)``, bounds as ints; :func:`iter_lawan` and
:func:`negating_windows` wrap them in :class:`~repro.core.windows.Window`,
while :func:`repro.core.joins.group_tuples` forms output tuples from them
directly.
"""

from __future__ import annotations

import heapq
from itertools import chain, count
from typing import Iterable, Iterator

from ..lineage import LineageExpr, disjunction_of
from .overlap import OverlapGroup
from .lawau import gap_sweep
from .windows import Span, Window, WindowClass, span_windows

_N = WindowClass.NEGATING


def lawan(groups: Iterable[OverlapGroup]) -> list[Window]:
    """Run the full NJ window pipeline: overlap join → LAWAU → LAWAN.

    Returns ``WUON``: every overlapping, unmatched and negating window of the
    positive relation with respect to the negative one.
    """
    return list(iter_lawan(groups))


def iter_lawan(groups: Iterable[OverlapGroup]) -> Iterator[Window]:
    """Pipelined LAWAN: yield overlapping, unmatched and negating windows.

    Per group, the WUO windows of the LAWAU sweep come first (the paper:
    "the unmatched and overlapping windows in WUO need to be also copied"),
    then the group's negating windows, ordered by start.
    """
    for group in groups:
        yield from span_windows(group.r, chain(gap_sweep(group), negating_sweep(group)))


def negating_windows(groups: Iterable[OverlapGroup]) -> list[Window]:
    """Only the negating windows ``WN(r; s, θ)`` (the paper's WN measurement)."""
    windows: list[Window] = []
    for group in groups:
        windows.extend(span_windows(group.r, negating_sweep(group)))
    return windows


def negating_sweep(group: OverlapGroup) -> Iterator[Span]:
    """Priority-queue sweep over one group's overlapping windows.

    The queue holds ``(end, tiebreak, lineage)`` entries for the currently
    active overlapping windows.  Between two consecutive boundaries (window
    starts and ends) the active set is constant; if it is non-empty, that
    segment is a negating window whose ``λs`` is the disjunction of the
    active lineages.
    """
    matches = group.matches
    if not matches:
        return
    tiebreak = count()
    queue: list[tuple[int, int, LineageExpr]] = []
    index = 0
    total = len(matches)
    current_time: int | None = None

    while index < total or queue:
        if not queue:
            # Case 3 of Fig. 4: a new (sub-)group of overlapping windows
            # starts; jump the sweep position to its first start point.
            current_time = matches[index].start
            while index < total and matches[index].start == current_time:
                record = matches[index]
                heapq.heappush(queue, (record.end, next(tiebreak), record.s.lineage))
                index += 1
            continue

        next_start = matches[index].start if index < total else None
        smallest_end = queue[0][0]
        if next_start is not None and next_start < smallest_end:
            boundary = next_start
        else:
            boundary = smallest_end

        assert current_time is not None
        if boundary > current_time:
            lineage_s = disjunction_of(entry[2] for entry in queue)
            yield _N, current_time, boundary, None, lineage_s
            current_time = boundary

        # Admit windows starting at the boundary, then retire finished ones.
        while index < total and matches[index].start == boundary:
            record = matches[index]
            heapq.heappush(queue, (record.end, next(tiebreak), record.s.lineage))
            index += 1
        while queue and queue[0][0] <= current_time:
            heapq.heappop(queue)
