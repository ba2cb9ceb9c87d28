"""Temporal Alignment (TA) — the competing approach of the evaluation.

Temporal Alignment (Dignös, Böhlen, Gamper, Jensen: "Extending the Kernel of
a Relational DBMS with Comprehensive Support for Sequenced Temporal Queries",
TODS 2016) evaluates sequenced temporal operators by *aligning* the input
relations: every tuple is replicated and split at the interval boundaries of
its join partners, after which conventional (non-temporal) operators over the
aligned fragments produce the temporal result.

The paper adapts TA to temporal-probabilistic joins with negation and uses it
as the only applicable state-of-the-art baseline.  The adaptation reproduced
here follows the paper's description of TA's cost profile:

* the conventional outer join over the overlap predicate is executed **twice**
  (once for the overlapping part, once more to derive the unmatched part), so
  the WUO phase does roughly double the work of NJ (paper: "NJ only executes
  this join once whereas TA executes it twice", Fig. 5);
* the negating part requires *aligning* the positive relation against its
  matching partners — i.e. replicating each tuple into one fragment per
  elementary segment — and then joining the fragments with the negative
  relation again and grouping per fragment (Fig. 6);
* the final TP join has to union the sub-results, remove the unmatched
  windows that were computed twice, and re-check θ, and the conventional join
  inside the union-based plan degenerates to a nested loop (paper: "the
  optimizer opts for a nested loop … this takes a huge toll", Fig. 7).

TA therefore produces exactly the same windows and output tuples as NJ (the
tests assert this), but with tuple replication and redundant interval
computations — which is precisely the overhead the paper's approach removes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.concat import (
    combined_output_schema,
    window_to_positive_tuple,
    window_to_tuple,
)
from ..core.joins import swap_theta
from ..core.overlap import iter_overlap_join, overlapping_windows
from ..core.windows import Window, WindowClass
from ..lineage import disjunction_of
from ..relation import TPRelation, TPTuple, ThetaCondition
from ..temporal import Interval, segments_within


# --------------------------------------------------------------------------- #
# alignment (tuple replication)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class AlignedFragment:
    """One fragment of a positive tuple after alignment against its partners."""

    origin: TPTuple
    interval: Interval


def align(
    positive: TPRelation, negative: TPRelation, theta: ThetaCondition
) -> list[AlignedFragment]:
    """Replicate and split every positive tuple at its partners' boundaries.

    This is TA's *normalization* step: the output contains one fragment per
    elementary segment of each positive tuple's interval, where the segments
    are induced by the interval endpoints of the θ-matching negative tuples.
    A tuple with no matching partner yields a single fragment spanning its
    whole interval.  The replication factor of this step is what the paper's
    approach avoids.
    """
    fragments: list[AlignedFragment] = []
    for r in positive:
        partner_intervals = [
            s.interval
            for s in negative
            if theta.evaluate(r, s) and r.start < s.end and s.start < r.end
        ]
        for segment in segments_within(r.interval, partner_intervals):
            fragments.append(AlignedFragment(r, segment))
    return fragments


# --------------------------------------------------------------------------- #
# window computation, TA style
# --------------------------------------------------------------------------- #
def ta_overlapping_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    nested_loop: bool = False,
) -> list[Window]:
    """The overlapping windows via the conventional outer join.

    ``nested_loop=True`` forces the pairing strategy the paper reports the
    PostgreSQL optimizer chooses for TA's union-based plans; the default uses
    the same partitioned join as NJ (the Fig. 5 setting, where both
    approaches' dominant cost is "a conventional left join").
    """
    pairing_theta = _ForceNestedLoop(theta) if nested_loop else theta
    return overlapping_windows(positive, negative, pairing_theta)


def ta_unmatched_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    nested_loop: bool = False,
) -> list[Window]:
    """The unmatched windows, computed by a *second* pass over the inputs.

    TA cannot reuse the overlapping windows it already computed: it aligns
    the positive relation against the negative one (replicating tuples into
    fragments) and keeps the fragments with no valid matching partner — which
    requires evaluating the overlap predicate and θ again.
    """
    pairing_theta = _ForceNestedLoop(theta) if nested_loop else theta
    windows: list[Window] = []
    # Second execution of the conventional join, as an alignment pass.
    for group in iter_overlap_join(positive, negative, pairing_theta):
        r = group.r
        partner_intervals = [record.interval for record in group.matches]
        for segment in segments_within(r.interval, partner_intervals):
            covered = any(
                interval.contains_interval(segment) for interval in partner_intervals
            )
            if covered:
                continue
            windows.append(
                Window(
                    fact_r=r.fact,
                    fact_s=None,
                    start=segment.start,
                    end=segment.end,
                    lineage_r=r.lineage,
                    lineage_s=None,
                    window_class=WindowClass.UNMATCHED,
                    source_start=r.start,
                    source_end=r.end,
                )
            )
    return _merge_adjacent_unmatched(windows)


def ta_wuo(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    nested_loop: bool = False,
) -> list[Window]:
    """TA's WUO set: two executions of the conventional join (Fig. 5 baseline)."""
    overlapping = ta_overlapping_windows(positive, negative, theta, nested_loop)
    unmatched = ta_unmatched_windows(positive, negative, theta, nested_loop)
    return [*unmatched, *overlapping]


def ta_negating_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    nested_loop: bool = False,
) -> list[Window]:
    """The negating windows via alignment, re-join and grouping (Fig. 6 baseline).

    TA replicates every positive tuple into its aligned fragments, joins each
    fragment with the negative relation *again* to find the partners valid
    over the fragment, and groups the partners' lineages per fragment.  The
    fragments whose partner set is empty are discarded here (they are the
    unmatched windows, which TA computes — once more — separately).
    """
    pairing_theta = _ForceNestedLoop(theta) if nested_loop else theta
    fragments = align(positive, negative, pairing_theta)
    windows: list[Window] = []
    negative_sorted = sorted(negative, key=lambda t: (t.start, t.end))
    for fragment in fragments:
        r = fragment.origin
        start, end = fragment.interval.start, fragment.interval.end
        partner_lineages = []
        for s in negative_sorted:
            if s.start >= end:
                break
            if not (s.start <= start and end <= s.end):
                continue
            if theta.evaluate(r, s):
                partner_lineages.append(s.lineage)
        if not partner_lineages:
            continue
        windows.append(
            Window(
                fact_r=r.fact,
                fact_s=None,
                start=start,
                end=end,
                lineage_r=r.lineage,
                lineage_s=disjunction_of(partner_lineages),
                window_class=WindowClass.NEGATING,
                source_start=r.start,
                source_end=r.end,
            )
        )
    return windows


def ta_wuon(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    nested_loop: bool = False,
) -> list[Window]:
    """TA's full window set (WUO twice-joined + aligned negating windows)."""
    return [
        *ta_wuo(positive, negative, theta, nested_loop),
        *ta_negating_windows(positive, negative, theta, nested_loop),
    ]


# --------------------------------------------------------------------------- #
# TA join operators (union-based plans with duplicate elimination)
# --------------------------------------------------------------------------- #
def ta_anti_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
    nested_loop: bool = True,
) -> TPRelation:
    """TP anti join evaluated the TA way (sub-results + deduplicating union)."""
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    unmatched = ta_unmatched_windows(merged, negative, theta, nested_loop)
    # The union-based plan recomputes the unmatched windows as part of the
    # negating branch as well; the duplicates are removed by the union.
    unmatched_again = ta_unmatched_windows(merged, negative, theta, nested_loop)
    negating = ta_negating_windows(merged, negative, theta, nested_loop)
    tuples = [
        window_to_positive_tuple(w) for w in (*unmatched, *unmatched_again, *negating)
    ]
    tuples = _deduplicate(tuples)
    result = merged.derived(
        positive.schema, tuples, name=f"ta({positive.name} ▷ {negative.name})"
    )
    return result.with_probabilities() if compute_probabilities else result


def ta_left_outer_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
    nested_loop: bool = True,
) -> TPRelation:
    """TP left outer join evaluated the TA way (the Fig. 7 baseline).

    Three independent sub-plans (overlapping, unmatched, negating) are
    evaluated — each re-deriving the interval decomposition it needs — and a
    deduplicating union combines them, mirroring the plan the paper describes
    for TA inside PostgreSQL.
    """
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    overlapping = ta_overlapping_windows(merged, negative, theta, nested_loop)
    unmatched = ta_unmatched_windows(merged, negative, theta, nested_loop)
    unmatched_again = ta_unmatched_windows(merged, negative, theta, nested_loop)
    negating = ta_negating_windows(merged, negative, theta, nested_loop)
    schema = combined_output_schema(positive.schema, negative.schema, negative.name)
    left_width, right_width = len(positive.schema), len(negative.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*unmatched, *unmatched_again, *overlapping, *negating)
    ]
    tuples = _deduplicate(tuples)
    result = merged.derived(schema, tuples, name=f"ta({positive.name} ⟕ {negative.name})")
    return result.with_probabilities() if compute_probabilities else result


def ta_full_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
    nested_loop: bool = True,
) -> TPRelation:
    """TP full outer join evaluated the TA way (both directions + union)."""
    events = left.events.merge(right.events)
    merged_left = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    merged_right = TPRelation(
        right.schema, right.tuples, events, name=right.name, check_constraint=False
    )
    reverse_theta = swap_theta(theta)

    overlapping = ta_overlapping_windows(merged_left, merged_right, theta, nested_loop)
    unmatched_left = ta_unmatched_windows(merged_left, merged_right, theta, nested_loop)
    negating_left = ta_negating_windows(merged_left, merged_right, theta, nested_loop)
    unmatched_right = ta_unmatched_windows(merged_right, merged_left, reverse_theta, nested_loop)
    negating_right = ta_negating_windows(merged_right, merged_left, reverse_theta, nested_loop)

    schema = combined_output_schema(left.schema, right.schema, right.name)
    left_width, right_width = len(left.schema), len(right.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*unmatched_left, *overlapping, *negating_left)
    ]
    tuples.extend(
        window_to_tuple(w, left_width, right_width, left_is_positive=False)
        for w in (*unmatched_right, *negating_right)
    )
    tuples = _deduplicate(tuples)
    result = merged_left.derived(schema, tuples, name=f"ta({left.name} ⟗ {right.name})")
    return result.with_probabilities() if compute_probabilities else result


def ta_right_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
    nested_loop: bool = True,
) -> TPRelation:
    """TP right outer join evaluated the TA way: the mirrored left outer join.

    ``right ⟕ left`` under the swapped θ, with the fact columns put back in
    ``(left, right)`` order.
    """
    mirrored = ta_left_outer_join(right, left, swap_theta(theta), False, nested_loop)
    right_width = len(right.schema)
    tuples = [
        TPTuple.from_bounds(t.fact[right_width:] + t.fact[:right_width], t.lineage, t.start, t.end)
        for t in mirrored
    ]
    schema = combined_output_schema(left.schema, right.schema, right.name)
    result = mirrored.derived(schema, tuples, name=f"ta({left.name} ⟖ {right.name})")
    return result.with_probabilities() if compute_probabilities else result


#: Join-kind name → TA join; the engine's ``USING TA`` strategy table.
TA_JOINS = dict(
    anti=ta_anti_join,
    left_outer=ta_left_outer_join,
    right_outer=ta_right_outer_join,
    full_outer=ta_full_outer_join,
)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
class _ForceNestedLoop(ThetaCondition):
    """Wrap a θ condition so the pairing cannot use hash partitioning.

    Reproduces the plan the paper reports PostgreSQL's optimizer picks for
    TA's union-based queries ("the optimizer opts for a nested loop").
    """

    def __init__(self, inner: ThetaCondition) -> None:
        self._inner = inner

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        return self._inner.evaluate(left, right)

    @property
    def is_equi(self) -> bool:
        return False

    def describe(self) -> str:
        return f"nested_loop({self._inner.describe()})"


def _merge_adjacent_unmatched(windows: list[Window]) -> list[Window]:
    """Coalesce adjacent unmatched fragments of the same origin tuple.

    Alignment splits a tuple at *every* partner boundary, so two consecutive
    fragments can both be uncovered; the unmatched-window definition requires
    maximal intervals, hence the merge.
    """
    merged: list[Window] = []
    ordered = sorted(
        windows,
        key=lambda w: (w.fact_r, str(w.lineage_r), w.start, w.end),
    )
    for window in ordered:
        previous = merged[-1] if merged else None
        if (
            previous is not None
            and previous.fact_r == window.fact_r
            and previous.lineage_r == window.lineage_r
            and previous.source_interval == window.source_interval
            and previous.end == window.start
        ):
            merged[-1] = replace(previous, end=window.end)
        else:
            merged.append(window)
    return merged


def _deduplicate(tuples: list[TPTuple]) -> list[TPTuple]:
    """The deduplicating union of TA's plan (sort + unique on the full row)."""
    seen: set[tuple] = set()
    unique: list[TPTuple] = []
    for tp_tuple in sorted(tuples, key=lambda t: t.key()):
        identity = (tp_tuple.fact, tp_tuple.start, tp_tuple.end, str(tp_tuple.lineage))
        if identity in seen:
            continue
        seen.add(identity)
        unique.append(tp_tuple)
    return unique
