"""The one continuous TP join operator: what every dataflow node runs.

:class:`RevisionJoin` is the continuous counterpart of the batch joins, one
class parametrised by ``kind``.  Which windows a kind keeps is stated once,
in :data:`repro.core.joins.TABLE_II`, and every finalized overlap group is
turned into output tuples by the same :func:`repro.core.joins.group_tuples`
the batch joins call.  The kinds that keep *reverse* windows
(:data:`~repro.core.joins.REVERSE_KINDS`: the unmatched and negating windows
of ``s`` with respect to ``r``) run a second, mirrored
:class:`~repro.stream.incremental.IncrementalWindowMaintainer` whose
positive side is the right stream (θ swapped), while the overlapping
windows keep coming from the forward maintainer, so output lineages are
constructed operand-for-operand like the batch joins build them (which keeps
probabilities bitwise-comparable).

Its inputs are source events and *revision streams*
(:mod:`repro.dataflow.revision`):

* Source events go straight to the maintainers.  Input ``Emit``/``Refine``
  elements are additions too; ``Retract`` elements unwind the matching
  addition exactly (drop the open positive and its published windows, or
  strip the negative's overlap records from every open group).  The
  upstream watermark contract guarantees a retractable tuple's group is
  still open here, so unwinding is always possible.
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
* Watermark finalization *settles* a group.  In early mode a dirty group is
  published first — its revisions precede the watermark that passes it —
  and what the group has published then *is* final: the list moves to the
  settled list as it stands, nothing derived again, nothing compared.  With
  early emission off nothing was published, so the groups one watermark
  settles on a side are derived once, here, in one pass, and emitted.
  Either way the derived watermark moving past the group then guarantees
  downstream that none of its tuples will ever be revised again.
* **A node nothing reads wraps nothing.**  A node with no downstream node
  and no tap (``read=False``, as :mod:`repro.dataflow.compile` builds an
  unread sink; the default of :class:`~repro.stream.ContinuousJoin`)
  returns the settled tuples themselves from ``process`` and ``close``,
  with no :class:`~repro.dataflow.revision.Revision` around them, and
  derives no output watermark.  An early-emitting one keeps the batch ends
  but publishes nothing at them: a dirty group is only *stamped* the first
  time it has windows — every group of a side that keeps unmatched
  windows, a group of an overlapping-only side once it has a match — which
  records its latency and counts it in ``groups_published_early``.  A
  stamped group is derived once, when the node closes, in settle order: no
  one reads it sooner, and deriving every group a watermark settles at
  once would hold the interpreter for milliseconds while the upstream node
  waits on this node's inbox, which spreads the upstream's emit latency.
  Its ``emits``/``refines``/``retracts`` then read as a watermark-only
  node's.

Every node keeps its settled tuples in one list, :attr:`RevisionJoin.
settled`, in settle order; that list is the node's report and its
checkpoint (:mod:`repro.recovery.checkpoint`).  Nothing on this path
renders a lineage to text: windows and retracted inputs are recognised
structurally, sweep order asks for a negative's
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

With ``materialize_probabilities`` (requires the merged event space) the
operator computes each published tuple's probability through the
maintainer-owned :class:`~repro.lineage.ProbabilityComputer` — one computer
per maintainer, whose memo is shared by all its windows, so one
watermark's finalized groups of one side, whatever their keys, are derived
by a single :func:`~repro.core.joins.group_tuples` call; a refined window's
probability is recomputed through the same computer, whose memo answers the
sub-expressions the group's earlier revisions already evaluated.  The
values stay bitwise-identical to a fresh per-tuple computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.joins import (
    REVERSE_KINDS,
    TABLE_II,
    group_tuples,
    join_output_schema,
    swap_theta,
)
from ..core.overlap import OverlapGroup, sort_matches
from ..core.windows import WindowClass
from ..lineage import EventSpace
from ..relation import Schema, TPTuple, ThetaCondition, theta_or_true
from ..stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark
from ..stream.incremental import (
    FinalizedGroup,
    IncrementalWindowMaintainer,
    OpenPositive,
)
from .revision import Revision, RevisionElement, RevisionKind

#: Identity of one open group across both maintainers: (is_reverse, serial).
GroupId = Tuple[bool, int]

#: What :meth:`RevisionJoin.end_batch` returns: runs of revisions, each under
#: the trace context (``None`` when untraced) of the elements that last
#: dirtied its groups.
BatchRuns = List[Tuple[Optional[tuple], List[RevisionElement]]]


@dataclass
class RevisionJoinStats:
    """Operator-side counters of one continuous join."""

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


class RevisionJoin:
    """A continuous TP join of one ``kind`` over tagged input elements.

    Args:
        kind: one of :data:`repro.core.joins.JOIN_KINDS`; kinds in
            :data:`~repro.core.joins.REVERSE_KINDS` additionally run the
            mirrored reverse maintainer.
        left_schema / right_schema: input schemas.
        on: ``(left_attribute, right_attribute)`` equality pairs (θ).
        events: merged event space of every source feeding this operator
            (required for ``materialize_probabilities``).
        materialize_probabilities: compute output tuples' probabilities
            inline via the maintainer-owned computers, one per maintainer.
        early_emit: publish provisional windows before finalization.
        read: whether anything reads the output as it leaves (a downstream
            node, a tap).  A node nothing reads returns its settled tuples
            unwrapped and no watermarks; early-emitting, it only stamps the
            batch end at which each group first has windows, for its
            latency counters, and derives the group once, when it closes.
    """

    def __init__(
        self,
        kind: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]] = (),
        *,
        left_name: str = "r",
        right_name: str = "s",
        events: Optional[EventSpace] = None,
        materialize_probabilities: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        early_emit: bool = False,
        read: bool = True,
    ) -> None:
        if materialize_probabilities and events is None:
            raise ValueError("materialize_probabilities requires an event space")
        self.kind = kind
        # Raises ``ValueError`` for a kind Table II does not list.
        self._schema = join_output_schema(kind, left_schema, right_schema, right_name)
        self._widths = len(left_schema), len(right_schema)
        self._theta = theta_or_true(left_schema, right_schema, on)
        self._left_name = left_name
        self._right_name = right_name
        self._clock = clock
        self._materialize = materialize_probabilities
        self._forward = IncrementalWindowMaintainer(self._theta, events=events)
        self._reverse: Optional[IncrementalWindowMaintainer] = (
            IncrementalWindowMaintainer(swap_theta(self._theta), events=events)
            if kind in REVERSE_KINDS
            else None
        )
        self._early = early_emit
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
        #: The tuples of settled groups, in settle order: never revised
        #: again, and what the node reports.
        self.settled: List[TPTuple] = []
        #: Unread early mode: settled groups that had windows, in settle
        #: order, not yet derived; :meth:`close` derives them.
        self._underived: List[Tuple[bool, FinalizedGroup]] = []
        self.stats = RevisionJoinStats()
        #: Per group: seconds from its positive's ingestion to its first
        #: publication (its settlement, with early emission off).
        self.emit_latencies: List[float] = []
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
    def theta(self) -> ThetaCondition:
        return self._theta

    @property
    def maintainer(self) -> IncrementalWindowMaintainer:
        """The forward incremental window state (exposed for monitoring)."""
        return self._forward

    @property
    def reverse_maintainer(self) -> Optional[IncrementalWindowMaintainer]:
        """The mirrored maintainer of right/full outer joins (else ``None``)."""
        return self._reverse

    @property
    def early_emit(self) -> bool:
        return self._early

    @property
    def frontier(self) -> float:
        """The largest event start this node has been fed."""
        return self._frontier

    def output_schema(self) -> Schema:
        return self._schema

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
            for tp_tuple in chain(self.settled, published)
        }

    def describe(self) -> str:
        mode = "early-emit" if self._early else "watermark-only"
        if not self._read:
            mode += ", unread"
        return (
            f"{type(self).__name__}[{self.kind}] {self._left_name} × "
            f"{self._right_name} on {self._theta.describe()} ({mode})"
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
    def process(self, tagged: Tagged) -> list:
        """Apply one tagged input element; return what it outputs.

        A read node returns revisions first and, when its derived watermark
        advanced, a trailing :class:`Watermark` covering them; an unread
        node returns the tuples of the groups it settled, nothing else.  In
        early mode an addition or retraction only marks the groups it
        changed dirty; :meth:`end_batch` publishes them.
        """
        element = tagged.element
        out: list = []
        if isinstance(element, StreamEvent):
            self._add(tagged.side, element.tuple, tagged.ingest_clock, tagged.trace)
        elif isinstance(element, Watermark):
            self.settle_traces.clear()
            finalized, finalized_reverse = self._advance(tagged.side, element.value)
            self._settle(False, finalized, out)
            self._settle(True, finalized_reverse, out)
            self._advance_watermark(out)
        elif isinstance(element, Revision):
            if element.kind is RevisionKind.RETRACT:
                self._retract(tagged.side, element.tuple, tagged.trace, out)
                # Dropping an open group can raise the min open start.
                self._advance_watermark(out)
            else:
                self._add(tagged.side, element.tuple, tagged.ingest_clock, tagged.trace)
        else:
            raise TypeError(f"unsupported dataflow element {element!r}")
        return out

    def run(self, tagged_elements: Iterable[Tagged]) -> Iterator:
        """Drive the operator over a merged element sequence, then close it."""
        for tagged in tagged_elements:
            yield from self.process(tagged)
        yield from self.close()

    def close(self) -> list:
        """Force both sides closed, settling every remaining group; an
        unread early-emitting node then derives every group it settled."""
        self.settle_traces.clear()
        out: list = []
        self._settle(False, self._forward.close(), out)
        if self._reverse is not None:
            self._settle(True, self._reverse.close(), out)
        underived, self._underived = self._underived, []
        for is_reverse, run in groupby(underived, key=itemgetter(0)):
            self._emit_settled(is_reverse, [finalized for _side, finalized in run], out)
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
    # maintainers
    # ------------------------------------------------------------------ #
    def _advance(
        self, side: str, value: float
    ) -> Tuple[Sequence[FinalizedGroup], Sequence[FinalizedGroup]]:
        """Route one side's watermark into both maintainers.

        Returns the groups it finalized, forward then reverse (the mirrored
        maintainer sees the sides swapped).
        """
        if side == LEFT:
            return (
                self._forward.advance_left(value),
                self._reverse.advance_right(value) if self._reverse else (),
            )
        if side == RIGHT:
            return (
                self._forward.advance_right(value),
                self._reverse.advance_left(value) if self._reverse else (),
            )
        raise ValueError(f"unknown stream side {side!r}")

    def _derive(self, is_reverse: bool, groups: Iterable[OverlapGroup]) -> Iterator[TPTuple]:
        """The output tuples of one side's ``groups``, group by group, with
        probabilities if materialized: one :func:`group_tuples` pass."""
        computer = None
        if self._materialize:
            computer = (self._reverse if is_reverse else self._forward).computer
        return group_tuples(
            self.kind, groups, *self._widths, reverse=is_reverse, computer=computer
        )

    # ------------------------------------------------------------------ #
    # additions and retractions
    # ------------------------------------------------------------------ #
    def _mark_dirty(
        self, is_reverse: bool, entries: Iterable[OpenPositive], trace: Optional[tuple]
    ) -> None:
        dirty = self._dirty
        for entry in entries:
            dirty[(is_reverse, entry.serial)] = (entry, trace)

    def _add(
        self,
        side: str,
        tp_tuple: TPTuple,
        ingest_clock: Optional[float],
        trace: Optional[tuple],
    ) -> None:
        """Ingest one addition: a positive into one maintainer, a negative
        into the other; only early mode marks what it changed dirty.

        Only a side acting as a positive pays for a clock reading, and a
        router-stamped clock wins so buffered queueing is included.
        """
        if tp_tuple.start > self._frontier:
            self._frontier = tp_tuple.start
        early = self._early
        if side == LEFT:
            now = ingest_clock if ingest_clock is not None else self._clock()
            entry = self._forward.add_positive(tp_tuple, ingest_clock=now)
            if early and entry is not None:
                self._mark_dirty(False, (entry,), trace)
            if self._reverse is not None:
                hits = self._reverse.add_negative(tp_tuple)
                if early:
                    self._mark_dirty(True, hits, trace)
        elif side == RIGHT:
            hits = self._forward.add_negative(tp_tuple)
            if early:
                self._mark_dirty(False, hits, trace)
            if self._reverse is not None:
                now = ingest_clock if ingest_clock is not None else self._clock()
                entry = self._reverse.add_positive(tp_tuple, ingest_clock=now)
                if early and entry is not None:
                    self._mark_dirty(True, (entry,), trace)
        else:
            raise ValueError(f"unknown stream side {side!r}")

    def _retract(
        self,
        side: str,
        tp_tuple: TPTuple,
        trace: Optional[tuple],
        out: List[RevisionElement],
    ) -> None:
        self.stats.inputs_retracted += 1
        if side == LEFT:
            entry = self._forward.remove_positive(tp_tuple)
            if entry is not None:
                self._unpublish((False, entry.serial), out)
            if self._reverse is not None:
                hits = self._reverse.remove_negative(tp_tuple)
                if self._early:
                    self._mark_dirty(True, hits, trace)
        elif side == RIGHT:
            hits = self._forward.remove_negative(tp_tuple)
            if self._early:
                self._mark_dirty(False, hits, trace)
            if self._reverse is not None:
                entry = self._reverse.remove_positive(tp_tuple)
                if entry is not None:
                    self._unpublish((True, entry.serial), out)
        else:
            raise ValueError(f"unknown stream side {side!r}")

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

    def _settle(self, is_reverse: bool, groups: Sequence[FinalizedGroup], out: list) -> None:
        """Finalize one side's groups, in order: their tuples become settled
        output.

        With early emission off the groups are derived once, here, in one
        pass, and emitted.  In early mode a dirty group publishes its
        pending change first; its published tuples then *are* the final
        ones and move over as they stand.  An unread node only stamped the
        group and leaves its derivation to :meth:`close`.
        """
        if not groups:
            return
        self.stats.groups_settled += len(groups)
        if not self._early:
            for finalized in groups:
                self._record_latency(finalized.ingest_clock, finalized.group.r.end)
            self._emit_settled(is_reverse, groups, out)
            return
        for finalized in groups:
            gid: GroupId = (is_reverse, finalized.serial)
            self._publish_dirty(gid, out)
            tuples = self._published.pop(gid, None)
            if tuples is None:
                # Never had a window to publish, so it has none now either.
                self._record_latency(finalized.ingest_clock, finalized.group.r.end)
            elif self._read:
                self.settled.extend(tuples)
            else:
                self._underived.append((is_reverse, finalized))

    def _emit_settled(
        self, is_reverse: bool, groups: Sequence[FinalizedGroup], out: list
    ) -> None:
        """Derive settled groups of one side, once and in one pass, keep
        their tuples as settled and emit them as final — unwrapped where
        nothing reads them."""
        tuples = list(self._derive(is_reverse, [finalized.group for finalized in groups]))
        self.settled.extend(tuples)
        if self._read:
            self._announce(RevisionKind.EMIT, tuples, False, out)
        else:
            self.stats.emits += len(tuples)
            out.extend(tuples)

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
        """Append the derived watermark if it advanced; a node nothing
        reads derives none."""
        if not self._read:
            return
        derived = self.derived_watermark()
        if derived > self._last_watermark:
            self._last_watermark = derived
            out.append(Watermark(derived))
