"""The materialized result cache of one standing query.

A subscriber that attaches mid-run must not force a replay: the serving
layer maintains, per standing query, the current net output state — exactly
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
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..dataflow.revision import Revision, RevisionKind
from ..parallel.batch import canonical_order
from ..relation import TPTuple
from ..stream.elements import Watermark


class ResultCache:
    """Net output state of one revision stream, maintained incrementally."""

    __slots__ = (
        "_entries",
        "last_watermark",
        "revisions_applied",
        "retractions_applied",
    )

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[TPTuple, bool]] = {}
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
        else:
            self._entries[key] = (tp_tuple, element.provisional)

    def _settle_passed(self, watermark: float) -> None:
        """Promote provisional entries the watermark has passed.

        A group finalizes once the node's output watermark reaches its
        windows' ends, but the finalization diff republishes only *changed*
        tuples — a provisional tuple that was already correct is never
        re-emitted.  Stale ones are retracted before the watermark advance
        (taps observe dispatch order), so any provisional entry whose
        interval end the watermark has passed is in fact settled.
        """
        for key, (tp_tuple, provisional) in self._entries.items():
            if provisional and tp_tuple.end <= watermark:
                self._entries[key] = (tp_tuple, False)

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

    def provisional_count(self) -> int:
        """How many cached tuples are still provisional."""
        return sum(1 for _tuple, provisional in self._entries.values() if provisional)
