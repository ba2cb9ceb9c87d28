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
  current windows as *provisional* revisions instead of waiting for the
  watermark — once per micro-batch.  A new positive and every change of a
  match list only mark the group *dirty*; :meth:`RevisionJoin.end_batch`,
  which the worker loop calls at each micro-batch boundary (after every
  element on the inline transport), publishes each dirty group once, in the
  order the groups were first dirtied.  A republication is a *delta*: the
  group's windows are derived again and compared, by structural identity
  ``(fact, interval, lineage)``, with the list the group published last;
  stale windows are retracted, new ones arrive as ``Refine`` elements,
  unchanged ones stay the objects they were and are not mentioned.  Emit
  latency is recorded at the group's first publication, which is what drops
  it below the watermark lag.  Deferring is safe for the watermark
  contract: a dirty group is open, so its tuples start at or after its
  positive's start, which no derived watermark passes.
* Provisional windows are published only where something reads them.  An
  early-emitting node with no downstream node and no tap (``read=False``,
  as :mod:`repro.dataflow.compile` builds an unread sink) keeps the batch
  ends but publishes nothing at them: a dirty group is only *stamped* the
  first time it has windows — every group of a side that keeps unmatched
  windows, a group of an overlapping-only side once it has a match — which
  records its latency and counts it in ``groups_published_early``.  A
  stamped group is derived once, when the node closes, in settle order: no
  one reads it sooner, and deriving every group a watermark settles at
  once would hold the interpreter for milliseconds while the upstream node
  waits on this node's inbox, which spreads the upstream's emit latency.
  The node's ``emits``/``refines``/``retracts`` then read as a
  watermark-only node's.
* Watermark finalization *settles* a group.  In early mode a dirty group is
  published first — its revisions precede the watermark that passes it —
  and what the group has published then *is* final: the list moves to the
  settled output as it stands, nothing derived again, nothing compared.
  With early emission off nothing was published, so the group is derived
  once, here, and emitted (the path of ``ContinuousJoin._emit`` plus the
  ``Revision`` wrapper: the groups one watermark settles on a side are
  derived in one pass); an unread node keeps it for
  :meth:`RevisionJoin.close`, which derives each run of same-side groups
  in one pass.  Either way the derived watermark moving past
  the group then guarantees downstream that none of its tuples will ever be
  revised again.

Nothing on this path renders a lineage to text: windows and retracted
inputs are recognised structurally, sweep order asks for a negative's
:meth:`~repro.relation.TPTuple.key` only to break an overlap tie, and the
derived watermark's ``min_open_start`` is answered by a heap.  The net
output is not indexed either — a group's tuples live in the group's own
list until it settles, and :attr:`RevisionJoin.settled_outputs` assembles
the mapping when somebody reads it.

The settled output therefore converges: once both inputs close, the net
published set of every node equals the batch join re-run over the settled
inputs, tuple for tuple — the convergence harness in
:mod:`repro.dataflow.convergence` asserts exactly that, probabilities
bitwise.

With ``materialize_probabilities`` the operator computes each published
tuple's probability through the maintainer-owned
:class:`~repro.lineage.ProbabilityComputer`, one computer per maintainer; a
refined window's probability is recomputed through the same computer,
whose memo answers the sub-expressions the group's earlier revisions
already evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.joins import TABLE_II
from ..core.overlap import OverlapGroup, sort_matches
from ..core.windows import WindowClass
from ..relation import Schema, TPTuple
from ..stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark
from ..stream.incremental import FinalizedGroup, OpenPositive
from ..stream.operators import ContinuousJoin
from .revision import Revision, RevisionElement, RevisionKind

#: Identity of one open group across both maintainers: (is_reverse, serial).
GroupId = Tuple[bool, int]

#: What :meth:`RevisionJoin.end_batch` returns: runs of revisions, each under
#: the trace context (``None`` when untraced) of the elements that last
#: dirtied its groups.
BatchRuns = List[Tuple[Optional[tuple], List[RevisionElement]]]


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
        read: whether anything reads the revisions as they leave (a
            downstream node, a tap).  An early-emitting node nothing reads
            only stamps the batch end at which each group first has
            windows, for its latency counters, and derives the group once,
            when the node closes.
    """

    def __init__(
        self,
        kind: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]] = (),
        *,
        early_emit: bool = False,
        read: bool = True,
        **core,
    ) -> None:
        super().__init__(kind, left_schema, right_schema, on, **core)
        self._early = early_emit
        #: Early mode: publish provisional windows (``True``) or only stamp.
        self._read = read
        #: Per side (forward, reverse): whether every positive has windows —
        #: the side keeps unmatched (and negating) windows — rather than
        #: only the overlapping windows of its matches.
        self._always_windowed = tuple(
            WindowClass.UNMATCHED in kept for kept in TABLE_II[kind]
        )
        #: Early mode: the tuples each open group has published, in
        #: derivation order.  A group enters with its first non-empty
        #: publication and leaves when it settles or is retracted.  On an
        #: unread node every list stays empty: an entry is the group's stamp.
        self._published: Dict[GroupId, List[TPTuple]] = {}
        #: Early mode: the open groups changed since the last batch end, in
        #: first-dirtied order, each with its entry and the trace context of
        #: the element that last dirtied it.
        self._dirty: Dict[GroupId, Tuple[OpenPositive, Optional[tuple]]] = {}
        #: ``(start, stop, trace)``: the slices of the last ``process`` or
        #: ``close`` output that a settling dirty group published, with the
        #: trace context that dirtied it (traced groups only), so the worker
        #: can dispatch them under that context.
        self.settle_traces: List[Tuple[int, int, tuple]] = []
        #: The tuples of settled groups, in settle order: never revised again.
        self._settled: List[TPTuple] = []
        #: Unread early mode: settled groups that had windows, in settle
        #: order, not yet derived; :meth:`close` derives them.
        self._underived: List[Tuple[bool, FinalizedGroup]] = []
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

    @property
    def settled_outputs(self) -> Dict[tuple, TPTuple]:
        """Net output applied so far (emits/refines minus retracts).

        Keyed by :meth:`~repro.relation.TPTuple.identity` and assembled on
        read from the settled groups' tuples and the open groups' published
        ones; the operator itself keeps no global index.  An unread
        early-emitting node derives its settled groups when it closes, so
        its output is complete only then.
        """
        published = chain.from_iterable(self._published.values())
        return {
            tp_tuple.identity(): tp_tuple
            for tp_tuple in chain(self._settled, published)
        }

    def describe(self) -> str:
        mode = "watermark-only"
        if self._early:
            mode = "early-emit" if self._read else "early-emit, unread"
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
        covering them.  In early mode an addition or retraction only marks
        the groups it changed dirty; :meth:`end_batch` publishes them.
        """
        element = tagged.element
        out: List[RevisionElement] = []
        if isinstance(element, StreamEvent):
            element = Revision(RevisionKind.EMIT, element.tuple)
        if isinstance(element, Revision):
            if element.kind is RevisionKind.RETRACT:
                self._retract(tagged.side, element.tuple, tagged.trace, out)
                # Dropping an open group can raise the min open start.
                self._advance_watermark(out)
            else:
                if element.tuple.start > self._frontier:
                    self._frontier = element.tuple.start
                self._add(tagged.side, element.tuple, tagged.ingest_clock, tagged.trace)
        elif isinstance(element, Watermark):
            self.settle_traces.clear()
            finalized, finalized_reverse = self._advance(tagged.side, element.value)
            self._settle(False, finalized, out)
            self._settle(True, finalized_reverse, out)
            self._advance_watermark(out)
        else:
            raise TypeError(f"unsupported dataflow element {element!r}")
        return out

    def close(self) -> List[RevisionElement]:
        """Force both sides closed, settling every remaining group; an
        unread node then derives and emits every group it settled."""
        self.settle_traces.clear()
        out: List[RevisionElement] = []
        self._settle(False, self._forward.close(), out)
        if self._reverse is not None:
            self._settle(True, self._reverse.close(), out)
        underived, self._underived = self._underived, []
        for is_reverse, run in groupby(underived, key=itemgetter(0)):
            groups = [finalized for _side, finalized in run]
            self._settled.extend(self._emit_settled(is_reverse, groups, out))
        self._advance_watermark(out)
        return out

    def end_batch(self) -> BatchRuns:
        """Publish every group dirtied since the last call, once each.

        The worker loop calls this at each micro-batch boundary of an
        early-emitting operator.  Groups go in the order they were first
        dirtied; their revisions come back in runs, consecutive groups last
        dirtied under the same trace context sharing one, so an untraced
        batch is a single run.
        """
        runs: BatchRuns = []
        dirty = self._dirty
        if not dirty:
            return runs
        self._dirty = {}
        out: List[RevisionElement] = []
        context = None
        for (is_reverse, _serial), (entry, trace) in dirty.items():
            if trace is not context:
                if out:
                    runs.append((context, out))
                    out = []
                context = trace
            self._publish(is_reverse, entry, out)
        if out:
            runs.append((context, out))
        return runs

    # ------------------------------------------------------------------ #
    # additions and retractions
    # ------------------------------------------------------------------ #
    def _mark_dirty(
        self, affected: List[Tuple[bool, OpenPositive]], trace: Optional[tuple]
    ) -> None:
        dirty = self._dirty
        for is_reverse, entry in affected:
            dirty[(is_reverse, entry.serial)] = (entry, trace)

    def _add(
        self,
        side: str,
        tp_tuple: TPTuple,
        ingest_clock: Optional[float],
        trace: Optional[tuple],
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
            self._mark_dirty(affected, trace)

    def _retract(
        self,
        side: str,
        tp_tuple: TPTuple,
        trace: Optional[tuple],
        out: List[RevisionElement],
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
            self._mark_dirty(affected, trace)

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #
    def _publish(
        self, is_reverse: bool, entry: OpenPositive, out: List[RevisionElement]
    ) -> None:
        """Publish one open group's current windows (early mode).

        Called once per micro-batch for every group a new positive or a
        match-list change dirtied, and for a dirty group about to settle,
        so a settling group has published what its matches derive — which
        is why :meth:`_settle` has nothing left to compute.  An unread node
        derives nothing here: it stamps the group's first windows, for the
        latency counters, and derives the group when the node closes.
        """
        gid: GroupId = (is_reverse, entry.serial)
        if not self._read:
            if gid not in self._published and (
                self._always_windowed[is_reverse] or entry.matches
            ):
                self.stats.groups_published_early += 1
                self._record_latency(entry.ingest_clock, entry.tuple.end)
                self._published[gid] = []
            return
        # In place: the next publication then sorts an almost sorted list,
        # and finalization sorts into this same order anyway.
        sort_matches(entry.matches)
        current = list(
            self._derive(is_reverse, (OverlapGroup(entry.tuple, entry.matches),))
        )
        previous = self._published.get(gid)
        if previous is None:
            if not current:
                return  # nothing to say about this group yet
            self.stats.groups_published_early += 1
            self._announce(RevisionKind.EMIT, current, True, out)
            self._record_latency(entry.ingest_clock, entry.tuple.end)
        else:
            current = self._republish(previous, current, out)
        self._published[gid] = current

    def _republish(
        self,
        previous: List[TPTuple],
        current: List[TPTuple],
        out: List[RevisionElement],
    ) -> List[TPTuple]:
        """Retract what ``current`` no longer holds, then add what is new.

        Returns ``current`` with every unchanged window replaced by the
        object already published for it, so downstream never sees a spurious
        retract/re-emit cycle.
        """
        # A group whose last publication retracted everything starts over.
        kind = RevisionKind.REFINE if previous else RevisionKind.EMIT
        stale = {tp_tuple.identity(): tp_tuple for tp_tuple in previous}
        fresh: List[TPTuple] = []
        for index, tp_tuple in enumerate(current):
            unchanged = stale.pop(tp_tuple.identity(), None)
            if unchanged is None:
                fresh.append(tp_tuple)
            else:
                current[index] = unchanged
        self._announce(RevisionKind.RETRACT, stale.values(), True, out)
        self._announce(kind, fresh, True, out)
        return current

    def _settle(
        self,
        is_reverse: bool,
        groups: Sequence[FinalizedGroup],
        out: List[RevisionElement],
    ) -> None:
        """Finalize one side's groups, in order: their tuples become settled
        output.

        In early mode a dirty group publishes its pending change first; its
        published tuples then *are* the final ones and move over as they
        stand.  An unread node only stamped the group and leaves its
        derivation to :meth:`close`.  Otherwise the groups are derived once,
        here, in one pass, and emitted.
        """
        if not groups:
            return
        self.stats.groups_settled += len(groups)
        if not self._early:
            for finalized in groups:
                self._record_latency(finalized.ingest_clock, finalized.group.r.end)
            self._settled.extend(self._emit_settled(is_reverse, groups, out))
            return
        for finalized in groups:
            gid: GroupId = (is_reverse, finalized.serial)
            self._publish_dirty(gid, out)
            tuples = self._published.pop(gid, None)
            if tuples is None:
                # Never had a window to publish, so it has none now either.
                self._record_latency(finalized.ingest_clock, finalized.group.r.end)
            elif self._read:
                self._settled.extend(tuples)
            else:
                self._underived.append((is_reverse, finalized))

    def _emit_settled(
        self,
        is_reverse: bool,
        groups: Sequence[FinalizedGroup],
        out: List[RevisionElement],
    ) -> List[TPTuple]:
        """Derive settled groups of one side, once and in one pass, and emit
        their tuples as final."""
        tuples = list(self._derive(is_reverse, [finalized.group for finalized in groups]))
        self._announce(RevisionKind.EMIT, tuples, False, out)
        return tuples

    def _publish_dirty(self, gid: GroupId, out: List[RevisionElement]) -> None:
        """Publish ``gid`` now if it is dirty: a settling group says its last
        word before the watermark that passes it."""
        dirty = self._dirty.pop(gid, None)
        if dirty is None:
            return
        entry, trace = dirty
        start = len(out)
        self._publish(gid[0], entry, out)
        if trace is not None and len(out) > start:
            self.settle_traces.append((start, len(out), trace))

    def _unpublish(self, gid: GroupId, out: List[RevisionElement]) -> None:
        """Retract everything a removed group had published; a change it
        had pending dies with it."""
        self._dirty.pop(gid, None)
        self._announce(RevisionKind.RETRACT, self._published.pop(gid, ()), True, out)

    def _announce(
        self,
        kind: RevisionKind,
        tuples: Iterable[TPTuple],
        provisional: bool,
        out: List[RevisionElement],
    ) -> None:
        before = len(out)
        out.extend(Revision(kind, tp_tuple, provisional) for tp_tuple in tuples)
        count = len(out) - before
        if kind is RevisionKind.EMIT:
            self.stats.emits += count
        elif kind is RevisionKind.RETRACT:
            self.stats.retracts += count
        else:
            self.stats.refines += count

    def _record_latency(self, ingest_clock: float, end: float) -> None:
        self.emit_latencies.append(max(0.0, self._clock() - ingest_clock))
        self.emit_event_lags.append(self._frontier - end)

    def _advance_watermark(self, out: List[RevisionElement]) -> None:
        derived = self.derived_watermark()
        if derived > self._last_watermark:
            self._last_watermark = derived
            out.append(Watermark(derived))
