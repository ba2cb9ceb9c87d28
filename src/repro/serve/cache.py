"""The materialized result cache of one tapped sink.

A subscriber that attaches mid-run must not force a replay: the serving
layer maintains, per tapped sink node (shared by every standing query whose
sink it is), the current net output state — exactly
the dictionary a from-start subscriber would hold after applying every
Emit/Retract/Refine it received.  A late joiner gets this snapshot plus the
live tail from its hub cursor; because the hub applies cache updates and
ring appends under one lock (:meth:`repro.serve.hub.FanoutHub.publish`),
snapshot + tail composes to the identical final state.

The cache is keyed by the tuple's structural identity
(:meth:`~repro.relation.TPTuple.identity`: ``(fact, start, end, lineage)``)
— lineage nodes are frozen dataclasses, so structurally equal lineages hash
and compare equal without rendering them to text the way
:meth:`~repro.relation.TPTuple.key` does.  ``key()`` is
paid once per snapshot instead: snapshots return tuples in the canonical
deterministic order shared with :func:`repro.parallel.batch.canonical_order`,
so two independently accumulated states compare equal element-for-element.

Each entry is a mutable ``[tuple, provisional]`` cell, and a cell that
turns provisional is also pushed on a min-heap keyed by its interval end, so
a watermark settles by popping only the cells it passes instead of
rescanning the whole state.  Popping a cell clears its flag without a key
lookup: a cell retracted since its push is no longer in the state, and
clearing it changes nothing.  An element costs one hash of its key (lineage
hashes are not cached, so that is what a dictionary operation costs here).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Tuple

from ..dataflow.revision import Revision, RevisionKind
from ..parallel.batch import canonical_order
from ..relation import TPTuple
from ..stream.elements import Watermark


class ResultCache:
    """Net output state of one revision stream, maintained incrementally."""

    __slots__ = (
        "_entries",
        "_pending",
        "_order",
        "last_watermark",
        "revisions_applied",
        "retractions_applied",
    )

    def __init__(self) -> None:
        #: Identity → ``[tuple, provisional]`` cell.
        self._entries: Dict[Tuple, list] = {}
        #: ``(end, push order, cell)`` of cells that turned provisional; the
        #: push order breaks ties, so cells are never compared.
        self._pending: List[Tuple[int, int, list]] = []
        self._order = itertools.count()
        self.last_watermark = float("-inf")
        self.revisions_applied = 0
        self.retractions_applied = 0

    def __len__(self) -> int:
        return len(self._entries)

    def apply(self, element: Any) -> None:
        """Fold one hub element (revision or watermark) into the state.

        Emit and Refine both upsert — a refine replaces the published tuple
        under the same key; Retract removes it.  Watermarks advance the
        query's progress frontier (monotone; regressions are ignored).
        """
        if isinstance(element, Watermark):
            if element.value > self.last_watermark:
                self.last_watermark = element.value
                self._settle_passed(element.value)
            return
        if not isinstance(element, Revision):
            raise TypeError(f"cannot cache element {element!r}")
        self.revisions_applied += 1
        tp_tuple = element.tuple
        key = tp_tuple.identity()
        if element.kind is RevisionKind.RETRACT:
            self._entries.pop(key, None)
            self.retractions_applied += 1
            return
        provisional = element.provisional
        fresh = [tp_tuple, provisional]
        cell = self._entries.setdefault(key, fresh)
        was_provisional = False
        if cell is not fresh:
            was_provisional = cell[1]
            cell[0] = tp_tuple
            cell[1] = provisional
        if provisional and not was_provisional:
            # A cell that stays provisional keeps its heap item: one is
            # only popped once the watermark has passed its end.
            heapq.heappush(self._pending, (tp_tuple.end, next(self._order), cell))

    def _settle_passed(self, watermark: float) -> None:
        """Promote provisional entries the watermark has passed.

        A group finalizes once the node's output watermark reaches its
        windows' ends, but the finalization diff republishes only *changed*
        tuples — a provisional tuple that was already correct is never
        re-emitted.  Stale ones are retracted before the watermark advance
        (taps observe dispatch order), so any provisional entry whose
        interval end the watermark has passed is in fact settled.  The end
        is part of the key, so a cell's end never changes.
        """
        pending = self._pending
        while pending and pending[0][0] <= watermark:
            heapq.heappop(pending)[2][1] = False

    def snapshot(self, settled_only: bool = False) -> List[TPTuple]:
        """The current net state, in canonical deterministic order.

        ``settled_only`` filters out tuples whose latest revision was still
        provisional — the view a watermark-only consumer would hold.
        """
        return canonical_order(
            [
                tp_tuple
                for tp_tuple, provisional in self._entries.values()
                if not (settled_only and provisional)
            ]
        )

