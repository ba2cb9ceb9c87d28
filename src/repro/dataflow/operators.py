"""Retractable continuous TP joins: the operator behind a dataflow node.

:class:`RevisionJoin` is a :class:`~repro.stream.operators.ContinuousJoin`
— same constructor, same forward (and, for right/full outer joins, mirrored
reverse) :class:`~repro.stream.incremental.IncrementalWindowMaintainer`,
same routing of watermarks into them, same group → tuples → probabilities
step — whose inputs and outputs are *revision streams*
(:mod:`repro.dataflow.revision`):

* Input ``Emit``/``Refine`` elements are additions; ``Retract`` elements
  unwind the matching addition exactly (drop the open positive and its
  published windows, or strip the negative's overlap records from every open
  group).  The upstream watermark contract guarantees a retractable tuple's
  group is still open here, so unwinding is always possible.
* In **early-emission** mode the operator publishes each open group's
  current windows as *provisional* revisions — on the positive's arrival and
  again whenever the group's match list changes — instead of waiting for the
  watermark.  A change republishes the group: stale windows are retracted,
  corrected ones arrive as ``Refine`` elements.  Emit latency is recorded at
  the group's first publication, which is what drops it below the watermark
  lag.
* Watermark finalization *settles* a group: the final windows are diffed
  against the published provisional ones (retract stale / emit missing), the
  group's bookkeeping is dropped, and from then on the derived watermark
  moving past the group guarantees downstream that none of its tuples will
  ever be revised again.

The settled output therefore converges: once both inputs close, the net
published set of every node equals the batch join re-run over the settled
inputs, tuple for tuple — the convergence harness in
:mod:`repro.dataflow.convergence` asserts exactly that, probabilities
bitwise.

With ``materialize_probabilities`` the operator computes each published
tuple's probability through the maintainer-owned per-key
:class:`~repro.lineage.ProbabilityComputer`; a refined window's probability
is recomputed through the same computer, whose memo answers the
sub-expressions the group's earlier revisions already evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..relation import Schema, TPTuple
from ..stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark
from ..stream.incremental import FinalizedGroup, OpenPositive
from ..stream.operators import ContinuousJoin, group_of
from .revision import Revision, RevisionElement, RevisionKind

#: Identity of one open group across both maintainers: (is_reverse, serial).
GroupId = Tuple[bool, int]


@dataclass
class RevisionJoinStats:
    """Operator-side counters of one retractable join."""

    emits: int = 0
    retracts: int = 0
    refines: int = 0
    groups_published_early: int = 0
    groups_settled: int = 0
    inputs_retracted: int = 0

    @classmethod
    def merged(cls, parts: "Sequence[RevisionJoinStats]") -> "RevisionJoinStats":
        """Sum the counters of a stage's partition workers into one record."""
        total = cls()
        for stats in parts:
            total.emits += stats.emits
            total.retracts += stats.retracts
            total.refines += stats.refines
            total.groups_published_early += stats.groups_published_early
            total.groups_settled += stats.groups_settled
            total.inputs_retracted += stats.inputs_retracted
        return total


class RevisionJoin(ContinuousJoin):
    """A retractable continuous TP join over tagged revision elements.

    Takes :class:`~repro.stream.operators.ContinuousJoin`'s arguments, plus:

    Args:
        early_emit: publish provisional windows before finalization.
    """

    def __init__(
        self,
        kind: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]] = (),
        *,
        early_emit: bool = False,
        **core,
    ) -> None:
        super().__init__(kind, left_schema, right_schema, on, **core)
        self._early = early_emit
        #: Published provisional tuples per open group, keyed by tuple identity.
        self._published: Dict[GroupId, Dict[tuple, TPTuple]] = {}
        self._latency_recorded: set[GroupId] = set()
        #: Net output applied so far (emits/refines minus retracts).
        self.settled_outputs: Dict[tuple, TPTuple] = {}
        self.stats = RevisionJoinStats()
        #: Event-time emit lag per group: how far the input frontier (max
        #: event start seen) had progressed past the group's interval end at
        #: first publication.  Watermark-only emission floors this at the
        #: watermark lag; early emission drives it negative.
        self.emit_event_lags: List[float] = []
        self._frontier: float = float("-inf")
        self._last_watermark: float = float("-inf")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def early_emit(self) -> bool:
        return self._early

    def describe(self) -> str:
        mode = "early-emit" if self._early else "watermark-only"
        return (
            f"RevisionJoin[{self.kind}] {self._left_name} × {self._right_name} "
            f"on {self._theta.describe()} ({mode})"
        )

    def derived_watermark(self) -> float:
        """The output watermark this node can currently promise.

        Every future revision concerns either a still-open group (tuples
        start at or after the group positive's start) or a future input
        event (starts at or after the combined input watermark).
        """
        derived = self._forward.combined_watermark
        open_start = self._forward.min_open_start()
        if self._reverse is not None:
            open_start = min(open_start, self._reverse.min_open_start())
        return min(derived, open_start)

    # ------------------------------------------------------------------ #
    # element processing
    # ------------------------------------------------------------------ #
    def process(self, tagged: Tagged) -> List[RevisionElement]:
        """Apply one tagged input element; returns output revision elements.

        The returned sequence always lists revisions first and, when the
        node's derived watermark advanced, a trailing :class:`Watermark`
        covering them.
        """
        element = tagged.element
        out: List[RevisionElement] = []
        if isinstance(element, StreamEvent):
            element = Revision(RevisionKind.EMIT, element.tuple)
        if isinstance(element, Revision):
            if element.kind is RevisionKind.RETRACT:
                self._retract(tagged.side, element.tuple, out)
                # Dropping an open group can raise the min open start.
                self._advance_watermark(out)
            else:
                if element.tuple.start > self._frontier:
                    self._frontier = element.tuple.start
                self._add(tagged.side, element.tuple, tagged.ingest_clock, out)
        elif isinstance(element, Watermark):
            finalized, finalized_reverse = self._advance(tagged.side, element.value)
            for group in finalized:
                self._settle(False, group, out)
            for group in finalized_reverse:
                self._settle(True, group, out)
            self._advance_watermark(out)
        else:
            raise TypeError(f"unsupported dataflow element {element!r}")
        return out

    def close(self) -> List[RevisionElement]:
        """Force both sides closed, settling every remaining group."""
        out: List[RevisionElement] = []
        for group in self._forward.close():
            self._settle(False, group, out)
        if self._reverse is not None:
            for group in self._reverse.close():
                self._settle(True, group, out)
        self._advance_watermark(out)
        return out

    # ------------------------------------------------------------------ #
    # additions and retractions
    # ------------------------------------------------------------------ #
    def _add(
        self,
        side: str,
        tp_tuple: TPTuple,
        ingest_clock: Optional[float],
        out: List[RevisionElement],
    ) -> None:
        now = ingest_clock if ingest_clock is not None else self._clock()
        affected: List[Tuple[bool, OpenPositive]] = []
        if side == LEFT:
            entry = self._forward.add_positive(tp_tuple, ingest_clock=now)
            if entry is not None:
                affected.append((False, entry))
            if self._reverse is not None:
                affected.extend(
                    (True, hit) for hit in self._reverse.add_negative(tp_tuple)
                )
        elif side == RIGHT:
            affected.extend(
                (False, hit) for hit in self._forward.add_negative(tp_tuple)
            )
            if self._reverse is not None:
                entry = self._reverse.add_positive(tp_tuple, ingest_clock=now)
                if entry is not None:
                    affected.append((True, entry))
        else:
            raise ValueError(f"unknown stream side {side!r}")
        if self._early:
            for is_reverse, entry in affected:
                self._publish(is_reverse, entry, out)

    def _retract(
        self, side: str, tp_tuple: TPTuple, out: List[RevisionElement]
    ) -> None:
        self.stats.inputs_retracted += 1
        affected: List[Tuple[bool, OpenPositive]] = []
        if side == LEFT:
            entry = self._forward.remove_positive(tp_tuple)
            if entry is not None:
                self._unpublish((False, entry.serial), out)
            if self._reverse is not None:
                affected.extend(
                    (True, hit) for hit in self._reverse.remove_negative(tp_tuple)
                )
        elif side == RIGHT:
            affected.extend(
                (False, hit) for hit in self._forward.remove_negative(tp_tuple)
            )
            if self._reverse is not None:
                entry = self._reverse.remove_positive(tp_tuple)
                if entry is not None:
                    self._unpublish((True, entry.serial), out)
        else:
            raise ValueError(f"unknown stream side {side!r}")
        if self._early:
            for is_reverse, entry in affected:
                self._publish(is_reverse, entry, out)

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #
    def _group_tuples(
        self, is_reverse: bool, group, key: Hashable
    ) -> Dict[tuple, TPTuple]:
        return {
            tp_tuple.key(): tp_tuple
            for tp_tuple in self._group_outputs(is_reverse, group, key)
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
        self, is_reverse: bool, finalized: FinalizedGroup, out: List[RevisionElement]
    ) -> None:
        """Finalize one group: publish the settled diff, drop its bookkeeping."""
        gid: GroupId = (is_reverse, finalized.serial)
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
        for old in self._published.pop(gid, {}).values():
            out.append(Revision(RevisionKind.RETRACT, old, provisional=True))
            self.stats.retracts += 1
            self.settled_outputs.pop(old.key(), None)
        self._latency_recorded.discard(gid)

    def _advance_watermark(self, out: List[RevisionElement]) -> None:
        derived = self.derived_watermark()
        if derived > self._last_watermark:
            self._last_watermark = derived
            out.append(Watermark(derived))
