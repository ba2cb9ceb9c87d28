"""Incremental, watermark-driven maintenance of lineage-aware windows.

The batch pipeline (``overlap join → LAWAU → LAWAN``) computes every window
of a positive tuple from its group of overlapping matches.  The crucial
observation carried over from the paper is that the window set of one
positive tuple ``r`` depends *only* on ``r`` itself and the θ-matching
negative tuples whose intervals overlap ``r.T`` — no other tuple of either
relation matters.  Over an unbounded stream this gives an exact finalization
rule:

    once the combined watermark ``W = min(W_left, W_right)`` satisfies
    ``r.Te ≤ W``, no future event of either stream can overlap ``r.T``
    (every future event starts at or after ``W``), so ``r``'s overlap group
    is complete and its LAWAU/LAWAN windows can be derived once, emitted,
    and never retracted.

:class:`IncrementalWindowMaintainer` keeps, per join key, the *open* positive
tuples (each with its accrued match list) and an index of negative tuples for
matching against late-arriving positives.  Every arriving event touches only
the tuples of its own key that it actually overlaps — the incremental
counterpart of the paper's no-replication property — and every watermark
advance finalizes exactly the positive tuples whose intervals it passed,
replaying the unchanged batch derivation (:func:`repro.core.joins.group_tuples`)
over their completed groups.  Batch/stream equivalence is therefore by
construction, and is additionally asserted by randomized tests.

State is bounded by eviction: finalized positives are dropped immediately,
and a negative tuple is dropped once the *left* watermark passes its end
(no open positive references it through the index any more, and every future
positive starts after it).

Three extensions serve the retractable dataflow subsystem
(:mod:`repro.dataflow`):

* **Retraction** — :meth:`IncrementalWindowMaintainer.remove_positive` /
  :meth:`remove_negative` unwind an earlier addition exactly, so a node
  consuming a *revision stream* (provisional upstream output that may be
  retracted) keeps state identical to a run that never saw the retracted
  tuple.  The tuple to unwind is found by its structural identity
  (:meth:`~repro.relation.TPTuple.identity`: fact, bounds and lineage
  compared as objects, nothing rendered to text).  The ingestion and
  removal methods return the open entries they touched, which is what
  early emission needs to republish exactly the affected groups.
* **Derived watermark** — :meth:`IncrementalWindowMaintainer.min_open_start`
  answers from an :class:`OpenStarts` index (a lazily-deleted heap) that is
  built at the first call, so runs that never ask for it never maintain it.
* **One probability computer per maintainer** — when constructed with an
  event space, the maintainer owns one
  :class:`~repro.lineage.ProbabilityComputer`, carried across *all* windows
  of a live continuous query, whatever their key, so the groups one
  watermark finalizes are derived in one pass.  Over base events every
  window lineage has one of the NJ shapes and is answered from the
  marginals; over a derived input the windows share memoised
  sub-expression probabilities.  Either way the values are
  bitwise-identical to a fresh computation (the factorised path performs
  the general path's float operations, and the memo only ever returns a
  value it previously computed the uncached way).

A watermark walks only the keys it can touch: each key keeps a lower bound
on the smallest end among its open positives and among its indexed
negatives, and finalization and eviction rebuild the lists of just the keys
whose bound the watermark reached, in key order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.overlap import OverlapGroup, OverlapRecord, _RecordWriter, sort_matches
from ..lineage import EventSpace, ProbabilityComputer
from ..relation import TPTuple, ThetaCondition
from ..relation.predicates import matchable
from ..values import reduce_fields, writer
from .elements import CLOSED

_new = object.__new__
_INF = float("inf")

#: Partition key used when θ is not an equi-join (single partition).
_WHOLE_STREAM: Tuple = ("<all>",)


@dataclass
class MaintainerStats:
    """Counters exposed by the maintainer for monitoring and benchmarks."""

    positives_in: int = 0
    negatives_in: int = 0
    late_positives_dropped: int = 0
    late_negatives_dropped: int = 0
    groups_finalized: int = 0
    negatives_evicted: int = 0
    peak_open_positives: int = 0
    peak_indexed_negatives: int = 0
    positives_retracted: int = 0
    negatives_retracted: int = 0


@dataclass
class OpenPositive:
    """One positive tuple awaiting finalization, with its accrued matches.

    ``serial`` is a maintainer-unique id assigned at ingestion; the dataflow
    layer uses it to key the provisional windows published for this group
    (object identity is unsafe: ids are reused after finalization).
    """

    tuple: TPTuple
    matches: List[OverlapRecord] = field(default_factory=list)
    ingest_clock: float = 0.0
    key: Hashable = None
    serial: int = 0


@dataclass(frozen=True, slots=True, init=False)
class FinalizedGroup:
    """A completed overlap group, ready for the LAWAU/LAWAN sweeps.

    ``ingest_clock`` is the wall-clock reading recorded when the positive
    tuple was ingested; operators subtract it from the emission clock to
    report per-tuple emit latency.  ``key`` and ``serial`` identify the
    originating open entry (its join key, and the serial that
    provisional-publication bookkeeping goes by).  Built by one ``__new__``
    (see :mod:`repro.values`).
    """

    group: OverlapGroup
    ingest_clock: float
    key: Hashable = None
    serial: int = 0

    def __new__(
        cls, group: OverlapGroup, ingest_clock: float, key: Hashable = None, serial: int = 0
    ) -> "FinalizedGroup":
        self = _new(_FinalizedWriter)
        self.group = group
        self.ingest_clock = ingest_clock
        self.key = key
        self.serial = serial
        self.__class__ = FinalizedGroup
        return self

    __reduce__ = reduce_fields


_FinalizedWriter = writer(FinalizedGroup)


class OpenStarts:
    """Exact smallest start among open positives, without scanning them.

    A heap of ``(start, serial)`` with lazy deletion: closing an entry only
    forgets its serial, and :meth:`minimum` pops heap heads whose serial is
    gone.  Every entry is pushed and popped at most once, so a call costs
    O(log n) amortized.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self, entries: Iterable[OpenPositive] = ()) -> None:
        self._heap = [(entry.tuple.start, entry.serial) for entry in entries]
        heapq.heapify(self._heap)
        self._live = {serial for _start, serial in self._heap}

    def add(self, entry: OpenPositive) -> None:
        heapq.heappush(self._heap, (entry.tuple.start, entry.serial))
        self._live.add(entry.serial)

    def discard(self, entry: OpenPositive) -> None:
        self._live.discard(entry.serial)

    def minimum(self) -> float:
        heap = self._heap
        live = self._live
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")


class IncrementalWindowMaintainer:
    """Per-key overlap state with watermark-driven window finalization."""

    def __init__(self, theta: ThetaCondition, events: Optional[EventSpace] = None) -> None:
        self._theta = theta
        self._partitioned = theta.is_equi
        # An equi key decides θ (see ``matchable``); any other θ is tested
        # on every interval-overlapping candidate.
        self._check = None if theta.is_equi else theta.evaluate
        self._open: Dict[Hashable, List[OpenPositive]] = {}
        self._negatives: Dict[Hashable, List[TPTuple]] = {}
        # Per key, in the order of the dicts above: a lower bound on the
        # smallest interval end among its open positives / indexed
        # negatives.  Tightened on insert and made exact for every key a
        # watermark walks; a watermark below a key's bound skips the key.
        self._open_ends: Dict[Hashable, float] = {}
        self._negative_ends: Dict[Hashable, float] = {}
        self._watermark_left: float = float("-inf")
        self._watermark_right: float = float("-inf")
        self._finalized_through: float = float("-inf")
        self.stats = MaintainerStats()
        self._open_count = 0
        self._negative_count = 0
        self._serial = 0
        # One probability computer (requires an event space), its memo
        # persisting across every window the maintainer finalizes.
        self._computer = None if events is None else ProbabilityComputer(events)
        # Smallest interval end among open positives / indexed negatives:
        # lets watermark advances skip the key walk entirely when nothing
        # can finalize or be evicted yet (the common case with frequent
        # watermarks).  Maintained as a lower bound: tightened on insert,
        # the minimum of the per-key bounds after each walk.
        self._min_open_end: float = _INF
        self._min_negative_end: float = _INF
        # Built by the first min_open_start() call, maintained from then on.
        self._open_starts: Optional[OpenStarts] = None

    # ------------------------------------------------------------------ #
    # watermark accessors
    # ------------------------------------------------------------------ #
    @property
    def combined_watermark(self) -> float:
        """The join's progress: the minimum of the two source watermarks."""
        return min(self._watermark_left, self._watermark_right)

    @property
    def open_positives(self) -> int:
        """Number of positive tuples currently awaiting finalization."""
        return self._open_count

    @property
    def indexed_negatives(self) -> int:
        """Number of negative tuples currently held for future matching."""
        return self._negative_count

    def min_open_start(self) -> float:
        """Exact smallest interval start among open positives (inf when none).

        The dataflow layer derives a node's *output watermark* from this: any
        future emission or retraction concerns an open positive, and all of a
        positive's windows start at or after the positive's own start.  The
        value is exact (not a cached bound) because an over-estimate would
        break the downstream watermark contract.  The first call indexes the
        open entries; operators that never derive a watermark never pay.
        """
        if self._open_starts is None:
            self._open_starts = OpenStarts(
                entry for entries in self._open.values() for entry in entries
            )
        return self._open_starts.minimum()

    @property
    def computer(self) -> Optional[ProbabilityComputer]:
        """The maintainer's one probability computer (``None`` without events).

        Owned by the maintainer and carried across all windows of a live
        continuous query, so every window shares its memoised
        sub-expression probabilities, and the groups of many keys can be
        derived in one pass.
        """
        return self._computer

    def computer_for(self, key: Hashable) -> ProbabilityComputer:
        """The probability computer for ``key``'s windows: :attr:`computer`,
        whatever the key (requires events)."""
        if self._computer is None:
            raise ValueError(
                "maintainer was built without an event space; "
                "pass events= to materialize probabilities"
            )
        return self._computer

    def probability_counters(self) -> Dict[str, int]:
        """The computer's telemetry: memo lookups, and the lineages answered
        factorised without consulting it (zeros without events)."""
        computer = self._computer
        if computer is None:
            return dict.fromkeys(
                ("probability_cache_hits", "probability_cache_misses", "probability_factorised"),
                0,
            )
        return {
            "probability_cache_hits": computer.cache_hits,
            "probability_cache_misses": computer.cache_misses,
            "probability_factorised": computer.factorised,
        }

    # ------------------------------------------------------------------ #
    # event ingestion
    # ------------------------------------------------------------------ #
    def _positive_key(self, tp_tuple: TPTuple) -> Hashable:
        return self._theta.left_key(tp_tuple) if self._partitioned else _WHOLE_STREAM

    def _negative_key(self, tp_tuple: TPTuple) -> Hashable:
        return self._theta.right_key(tp_tuple) if self._partitioned else _WHOLE_STREAM

    def add_positive(
        self, tp_tuple: TPTuple, ingest_clock: float = 0.0
    ) -> Optional[OpenPositive]:
        """Ingest one positive-stream tuple, matching it against stored negatives.

        Returns the created open entry, or ``None`` when the tuple arrived
        behind the left watermark and was dropped.
        """
        self.stats.positives_in += 1
        start, end = tp_tuple.start, tp_tuple.end
        if start < self._watermark_left:
            self.stats.late_positives_dropped += 1
            return None
        key = self._positive_key(tp_tuple)
        self._serial += 1
        entry = OpenPositive(tp_tuple, ingest_clock=ingest_clock, key=key, serial=self._serial)
        check = self._check
        for negative in self._negatives.get(key, ()) if matchable(key) else ():
            n_start, n_end = negative.start, negative.end
            if n_start < end and start < n_end and (check is None or check(tp_tuple, negative)):
                record = _new(_RecordWriter)
                record.r = tp_tuple
                record.s = negative
                record.start = n_start if n_start > start else start
                record.end = n_end if n_end < end else end
                record.__class__ = OverlapRecord
                entry.matches.append(record)
        entries = self._open.get(key)
        if entries is None:
            self._open[key] = [entry]
            self._open_ends[key] = end
        else:
            entries.append(entry)
            if end < self._open_ends[key]:
                self._open_ends[key] = end
        self._open_count += 1
        if self._open_starts is not None:
            self._open_starts.add(entry)
        if end < self._min_open_end:
            self._min_open_end = end
        if self._open_count > self.stats.peak_open_positives:
            self.stats.peak_open_positives = self._open_count
        return entry

    def add_negative(self, tp_tuple: TPTuple) -> List[OpenPositive]:
        """Ingest one negative-stream tuple, extending affected open positives.

        Returns the open entries whose match lists grew (empty when the
        tuple was dropped as late or overlapped nothing) — the groups whose
        provisional windows an early-emitting operator must republish.
        """
        self.stats.negatives_in += 1
        start, end = tp_tuple.start, tp_tuple.end
        if start < self._watermark_right:
            self.stats.late_negatives_dropped += 1
            return []
        key = self._negative_key(tp_tuple)
        bucket = self._negatives.get(key)
        if bucket is None:
            self._negatives[key] = [tp_tuple]
            self._negative_ends[key] = end
        else:
            bucket.append(tp_tuple)
            if end < self._negative_ends[key]:
                self._negative_ends[key] = end
        self._negative_count += 1
        if end < self._min_negative_end:
            self._min_negative_end = end
        if self._negative_count > self.stats.peak_indexed_negatives:
            self.stats.peak_indexed_negatives = self._negative_count
        affected: List[OpenPositive] = []
        check = self._check
        for entry in self._open.get(key, ()) if matchable(key) else ():
            positive = entry.tuple
            p_start, p_end = positive.start, positive.end
            if p_start < end and start < p_end and (check is None or check(positive, tp_tuple)):
                record = _new(_RecordWriter)
                record.r = positive
                record.s = tp_tuple
                record.start = start if start > p_start else p_start
                record.end = end if end < p_end else p_end
                record.__class__ = OverlapRecord
                entry.matches.append(record)
                affected.append(entry)
        return affected

    # ------------------------------------------------------------------ #
    # retraction (revision-stream inputs)
    # ------------------------------------------------------------------ #
    def remove_positive(self, tp_tuple: TPTuple) -> Optional[OpenPositive]:
        """Unwind an earlier :meth:`add_positive`; returns the removed entry.

        The upstream watermark contract guarantees a retractable tuple is
        still open here (its group cannot have been finalized: finalization
        needs the combined watermark past its end, while retraction implies
        the upstream watermark — and therefore our side watermark — has not
        passed its start).  ``None`` means the tuple was never added, which
        callers treat as a contract violation.
        """
        key = self._positive_key(tp_tuple)
        identity = tp_tuple.identity()
        entries = self._open.get(key, [])
        for index, entry in enumerate(entries):
            if entry.tuple.identity() == identity:
                del entries[index]
                if not entries:
                    del self._open[key]
                    del self._open_ends[key]
                self._open_count -= 1
                self.stats.positives_retracted += 1
                if self._open_starts is not None:
                    self._open_starts.discard(entry)
                # The end bounds are lower bounds; removal only raises the
                # true minimum, so they stay valid as they are.
                return entry
        return None

    def remove_negative(self, tp_tuple: TPTuple) -> List[OpenPositive]:
        """Unwind an earlier :meth:`add_negative`.

        Drops the tuple from the index (when still there — it may have been
        evicted) and strips its overlap records from every open positive of
        its key, returning the entries whose match lists shrank so an
        early-emitting operator can republish them.
        """
        key = self._negative_key(tp_tuple)
        identity = tp_tuple.identity()
        bucket = self._negatives.get(key)
        if bucket is not None:
            for index, negative in enumerate(bucket):
                if negative.identity() == identity:
                    del bucket[index]
                    if not bucket:
                        del self._negatives[key]
                        del self._negative_ends[key]
                    self._negative_count -= 1
                    break
        self.stats.negatives_retracted += 1
        affected: List[OpenPositive] = []
        for entry in self._open.get(key, ()):
            kept = [
                record
                for record in entry.matches
                if record.s.identity() != identity
            ]
            if len(kept) != len(entry.matches):
                entry.matches[:] = kept
                affected.append(entry)
        return affected

    # ------------------------------------------------------------------ #
    # watermark advancement and finalization
    # ------------------------------------------------------------------ #
    def advance_left(self, watermark: float) -> List[FinalizedGroup]:
        """Advance the positive-side watermark; returns newly finalized groups."""
        if watermark > self._watermark_left:
            self._watermark_left = watermark
            self._evict_negatives()
        return self._finalize()

    def advance_right(self, watermark: float) -> List[FinalizedGroup]:
        """Advance the negative-side watermark; returns newly finalized groups."""
        if watermark > self._watermark_right:
            self._watermark_right = watermark
        return self._finalize()

    def close(self) -> List[FinalizedGroup]:
        """Close both sides, finalizing every remaining open positive."""
        self._watermark_left = CLOSED
        self._watermark_right = CLOSED
        self._evict_negatives()
        return self._finalize()

    def _finalize(self) -> List[FinalizedGroup]:
        """Finalize open positives whose interval end the combined watermark passed."""
        horizon = self.combined_watermark
        if horizon <= self._finalized_through:
            return []
        self._finalized_through = horizon
        if horizon < self._min_open_end:
            # No open positive ends at or before the horizon: nothing to do.
            # (Entries admitted later start at or after the watermark, so
            # they end strictly after it — the bound stays valid.)
            return []
        finalized: List[FinalizedGroup] = []
        emptied: List[Hashable] = []
        open_ends = self._open_ends
        open_starts = self._open_starts
        min_end = _INF
        # Only a key whose bound the horizon reached can finalize anything.
        for key, bound in open_ends.items():
            if bound > horizon:
                if bound < min_end:
                    min_end = bound
                continue
            remaining: List[OpenPositive] = []
            key_end = _INF
            for entry in self._open[key]:
                end = entry.tuple.end
                if end <= horizon:
                    sort_matches(entry.matches)
                    if open_starts is not None:
                        open_starts.discard(entry)
                    group = _new(OverlapGroup)
                    group.r = entry.tuple
                    group.matches = entry.matches
                    finalized.append(
                        FinalizedGroup(
                            group,
                            entry.ingest_clock,
                            entry.key,
                            entry.serial,
                        )
                    )
                else:
                    if end < key_end:
                        key_end = end
                    remaining.append(entry)
            if remaining:
                self._open[key] = remaining
                open_ends[key] = key_end
                if key_end < min_end:
                    min_end = key_end
            else:
                emptied.append(key)
        for key in emptied:
            del self._open[key]
            del open_ends[key]
        self.stats.groups_finalized += len(finalized)
        self._open_count -= len(finalized)
        self._min_open_end = min_end
        return finalized

    # ------------------------------------------------------------------ #
    # checkpoint accessors (state export/import)
    # ------------------------------------------------------------------ #
    # The recovery codec (repro.recovery.checkpoint) snapshots and restores
    # maintainer state through these four methods rather than reaching into
    # the fields above, so the versioned frames do not depend on how the
    # state is stored.
    def open_items(self) -> List[Tuple[Hashable, List[OpenPositive]]]:
        """Open entries grouped per key, keys in first-seen order."""
        return [(key, list(entries)) for key, entries in self._open.items()]

    def negative_items(self) -> List[Tuple[Hashable, List[TPTuple]]]:
        """Indexed negatives grouped per key, keys in first-seen order."""
        return [(key, list(bucket)) for key, bucket in self._negatives.items()]

    def load_open_entries(self, key: Hashable, entries: List[OpenPositive]) -> None:
        """Checkpoint restore: adopt pre-built open entries for one key.

        Structural load: counts and end bounds are updated, but watermarks
        and stats are restored separately by the checkpoint codec.
        """
        if not entries:
            return
        self._open.setdefault(key, []).extend(entries)
        bound = min(entry.tuple.end for entry in entries)
        self._open_ends[key] = min(bound, self._open_ends.get(key, _INF))
        self._min_open_end = min(bound, self._min_open_end)
        self._open_count += len(entries)
        if self._open_starts is not None:
            for entry in entries:
                self._open_starts.add(entry)

    def load_negatives(self, key: Hashable, bucket: List[TPTuple]) -> None:
        """Checkpoint restore: adopt one key's indexed negatives."""
        if not bucket:
            return
        self._negatives.setdefault(key, []).extend(bucket)
        bound = min(negative.end for negative in bucket)
        self._negative_ends[key] = min(bound, self._negative_ends.get(key, _INF))
        self._min_negative_end = min(bound, self._min_negative_end)
        self._negative_count += len(bucket)

    def _evict_negatives(self) -> None:
        """Drop negatives no future positive can overlap.

        Every future positive starts at or after the left watermark, so a
        negative ending at or before it can never match again through the
        index (open positives that already matched it hold their own
        references in their match lists).
        """
        horizon = self._watermark_left
        if horizon < self._min_negative_end:
            return
        emptied: List[Hashable] = []
        negative_ends = self._negative_ends
        min_end = _INF
        evicted = 0
        # Only a key whose bound the horizon reached has anything to evict.
        for key, bound in negative_ends.items():
            if bound > horizon:
                if bound < min_end:
                    min_end = bound
                continue
            bucket = self._negatives[key]
            kept = [negative for negative in bucket if negative.end > horizon]
            evicted += len(bucket) - len(kept)
            if kept:
                key_end = min(negative.end for negative in kept)
                self._negatives[key] = kept
                negative_ends[key] = key_end
                if key_end < min_end:
                    min_end = key_end
            else:
                emptied.append(key)
        for key in emptied:
            del self._negatives[key]
            del negative_ends[key]
        self.stats.negatives_evicted += evicted
        self._negative_count -= evicted
        self._min_negative_end = min_end
