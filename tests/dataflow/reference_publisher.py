"""The derive-everything-and-diff publisher, kept as a test-only referee.

Until PR 17 this was :class:`~repro.dataflow.operators.RevisionJoin`'s output
half: every publication re-derived *all* windows of the touched group, keyed
them by the rendered :meth:`~repro.relation.TPTuple.key`, and diffed two
dicts; finalization derived the group once more and diffed it against what
was published.  It is slow and obviously right, which is what a referee
should be.  :class:`ReferenceRevisionJoin` inherits everything the two
publishers share (the maintainers, ``process``, ``_add``, ``_retract``, the
dirty set and ``end_batch``, the derived watermark) and replaces only the
output half with the old code — plus the one rule the batch boundary adds:
a group withdrawn or settled inside a batch leaves the dirty set, a settling
one after publishing its pending change — so
``tests/dataflow/test_delta_publication.py`` can drive both over the same
inputs and compare them batch by batch.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

from repro.core.overlap import OverlapGroup, OverlapRecord
from repro.dataflow.operators import GroupId, RevisionJoin
from repro.dataflow.revision import Revision, RevisionElement, RevisionKind
from repro.relation import TPTuple
from repro.stream.incremental import FinalizedGroup, OpenPositive


def _match_order(record: OverlapRecord) -> tuple:
    """The sweep order, stated in one key: overlap start, overlap end, then
    the negative tuple's rendered key.  ``repro.core.overlap.sort_matches``
    must leave exactly what a stable sort by this leaves."""
    return (record.interval.start, record.interval.end, record.s.key())


def group_of(entry: OpenPositive) -> OverlapGroup:
    """The (possibly still open) overlap group of one maintainer entry.

    Matches are sorted into sweep order on a copy, by the referee's own
    three-component key.
    """
    return OverlapGroup(entry.tuple, sorted(entry.matches, key=_match_order))


class ReferenceRevisionJoin(RevisionJoin):
    """``RevisionJoin`` with the pre-PR-17 derive-and-diff output half."""

    #: Shadows the delta publisher's assembled-on-read property: here it is
    #: the stored net-output dict it always was, keyed by ``key()``.
    settled_outputs: Dict[tuple, TPTuple] = None  # type: ignore[assignment]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Published provisional tuples per open group, keyed by tuple identity.
        self._published: Dict[GroupId, Dict[tuple, TPTuple]] = {}
        self._latency_recorded: set[GroupId] = set()
        #: Net output applied so far (emits/refines minus retracts).
        self.settled_outputs = {}

    def _group_tuples(
        self, is_reverse: bool, group, key: Hashable
    ) -> Dict[tuple, TPTuple]:
        return {
            tp_tuple.key(): tp_tuple
            for tp_tuple in self._derive(is_reverse, (group,))
        }

    def _publish(
        self, is_reverse: bool, entry: OpenPositive, out: List[RevisionElement]
    ) -> None:
        """Republish one open group's provisional windows (early mode)."""
        gid: GroupId = (is_reverse, entry.serial)
        current = self._group_tuples(is_reverse, group_of(entry), entry.key)
        previous = self._published.get(gid)
        if previous is None and not current:
            return  # nothing to say about this group yet
        if previous is None:
            previous = {}
            self.stats.groups_published_early += 1
        self._diff(gid, previous, current, provisional=True, out=out)
        self._published[gid] = current
        if current and gid not in self._latency_recorded:
            self._record_latency(gid, entry.ingest_clock, entry.tuple.end)

    def _settle(
        self,
        is_reverse: bool,
        groups: Sequence[FinalizedGroup],
        out: List[RevisionElement],
    ) -> None:
        """Finalize one side's groups, one by one."""
        for finalized in groups:
            self._settle_one(is_reverse, finalized, out)

    def _settle_one(
        self, is_reverse: bool, finalized: FinalizedGroup, out: List[RevisionElement]
    ) -> None:
        """Finalize one group: publish the settled diff, drop its bookkeeping.

        A dirty group first publishes its pending change, as the operator's
        does, so the settled diff finds nothing left to say.
        """
        gid: GroupId = (is_reverse, finalized.serial)
        self._publish_dirty(gid, out)
        final = self._group_tuples(is_reverse, finalized.group, finalized.key)
        previous = self._published.pop(gid, {})
        self._diff(gid, previous, final, provisional=False, out=out)
        self.stats.groups_settled += 1
        if gid not in self._latency_recorded:
            self._record_latency(gid, finalized.ingest_clock, finalized.group.r.end)
        # The group is gone for good; drop its latency bookkeeping with it.
        self._latency_recorded.discard(gid)

    def _diff(
        self,
        gid: GroupId,
        previous: Dict[tuple, TPTuple],
        current: Dict[tuple, TPTuple],
        provisional: bool,
        out: List[RevisionElement],
    ) -> None:
        refining = bool(previous)
        for identity, old in previous.items():
            if identity not in current:
                out.append(Revision(RevisionKind.RETRACT, old, provisional=True))
                self.stats.retracts += 1
                self.settled_outputs.pop(identity, None)
        for identity, tp_tuple in current.items():
            if identity in previous:
                # Unchanged window: keep the previously published object so
                # downstream never sees a spurious retract/re-emit cycle.
                current[identity] = previous[identity]
                continue
            kind = RevisionKind.REFINE if refining else RevisionKind.EMIT
            out.append(Revision(kind, tp_tuple, provisional=provisional))
            if kind is RevisionKind.EMIT:
                self.stats.emits += 1
            else:
                self.stats.refines += 1
            self.settled_outputs[identity] = tp_tuple

    def _record_latency(self, gid: GroupId, ingest_clock: float, end: float) -> None:
        self._latency_recorded.add(gid)
        self.emit_latencies.append(max(0.0, self._clock() - ingest_clock))
        self.emit_event_lags.append(self._frontier - end)

    def _unpublish(self, gid: GroupId, out: List[RevisionElement]) -> None:
        """Retract everything a removed group had published."""
        self._dirty.pop(gid, None)
        for old in self._published.pop(gid, {}).values():
            out.append(Revision(RevisionKind.RETRACT, old, provisional=True))
            self.stats.retracts += 1
            self.settled_outputs.pop(old.key(), None)
        self._latency_recorded.discard(gid)
