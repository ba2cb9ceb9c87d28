"""LAWAU — Lineage-Aware Window Algorithm for Unmatched windows.

LAWAU extends the result of the conventional outer join ``r ⟕_{θo ∧ θ} s``
(the overlapping windows plus the fully-unmatched rows) with the *remaining*
unmatched windows: the maximal sub-intervals of an ``r`` tuple's interval
during which no ``s`` tuple is valid or satisfies θ, even though the tuple
does have matches elsewhere in its lifetime.

The algorithm is a single sweep per ``r`` tuple over its overlapping windows,
ordered by start (the grouping and ordering are established by
:func:`repro.core.overlap.overlap_join`).  A sweeping window
``[windTs, windTe)`` is advanced through the tuple's initial interval; the
paper's Fig. 3 distinguishes five cases for where the sweeping window ends —
they collapse to the following three situations during the sweep:

1. the next overlapping window starts after ``windTs``  → the gap
   ``[windTs, nextStart)`` is an unmatched window (Fig. 3 cases 1–2);
2. the next overlapping window starts at or before ``windTs`` → no gap, the
   sweep position advances to the end of that window if it extends further
   (cases 3–4);
3. there is no further overlapping window and ``windTs`` is still before the
   tuple's end → the tail ``[windTs, r.Te)`` is an unmatched window (case 5).

Existing windows (overlapping and fully-unmatched) are copied to the output
unchanged, so the result ``WUO`` contains every overlapping and every
unmatched window of ``r`` with respect to ``s`` — the input LAWAN expects.

The sweep, :func:`gap_sweep`, is written once and yields bare
:data:`~repro.core.windows.Span` records ``(window_class, start, end,
fact_s, lineage_s)``, bounds as ints; :func:`iter_lawau` and friends wrap
them in :class:`~repro.core.windows.Window`, while
:func:`repro.core.joins.group_tuples` forms output tuples from them directly
for every group outside the NJ base shape (it sweeps a base-shaped group's
gaps inline).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .overlap import OverlapGroup
from .windows import Span, Window, WindowClass, span_windows

_U, _O = WindowClass.UNMATCHED, WindowClass.OVERLAPPING


def lawau(groups: Iterable[OverlapGroup]) -> list[Window]:
    """Run LAWAU over the grouped overlap-join result.

    Returns the set ``WUO``: all overlapping windows plus all unmatched
    windows, in per-group temporal order (unmatched gaps interleaved with the
    overlapping windows they border).
    """
    return list(iter_lawau(groups))


def iter_lawau(groups: Iterable[OverlapGroup]) -> Iterator[Window]:
    """Pipelined LAWAU: yield the windows of ``WUO`` group by group."""
    for group in groups:
        yield from span_windows(group.r, gap_sweep(group))


def gap_sweep(group: OverlapGroup) -> Iterator[Span]:
    """Sweep one ``r`` tuple's interval and yield its WUO spans in order."""
    r = group.r
    if not group.matches:
        # The conventional outer join already pads fully-unmatched tuples;
        # copy that padded row through as an unmatched window over r.T.
        yield _U, r.start, r.end, None, None
        return

    wind_ts = r.start
    for record in group.matches:
        start, end = record.start, record.end
        if start > wind_ts:
            # Case 1/2: a gap before the next overlapping window.
            yield _U, wind_ts, start, None, None
            wind_ts = start
        # Copy the overlapping window.
        s = record.s
        yield _O, start, end, s.fact, s.lineage
        if end > wind_ts:
            # Case 3/4: advance the sweep past the covered part.
            wind_ts = end
    if wind_ts < r.end:
        # Case 5: the tail of r's interval after the last overlapping window.
        yield _U, wind_ts, r.end, None, None

