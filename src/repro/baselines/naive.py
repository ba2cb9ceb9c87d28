"""Naive per-time-point evaluation of TP joins with negation.

This baseline evaluates the *definition* of the generalized windows directly:
for every tuple of the positive relation it walks the tuple's interval,
computes at every step the set of valid, θ-matching tuples of the negative
relation, and glues maximal runs with a constant matching set into windows.
Overlapping windows are simply the pairwise interval intersections.

It is quadratic (or worse) and replicates work massively, so it is never used
for performance numbers at scale; its role is to be *obviously correct*.  The
test suite uses it as the ground-truth oracle against which both NJ (the
paper's approach) and TA (the competing approach) are checked, and the
harness can run it on small inputs as a sanity baseline.
"""

from __future__ import annotations

from ..core.concat import (
    combined_output_schema,
    window_to_positive_tuple,
    window_to_tuple,
)
from ..core.windows import Window, WindowClass, WindowSet
from ..lineage import disjunction_of
from ..relation import TPRelation, ThetaCondition
from ..temporal import partition_by_validity


def naive_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    include_reverse: bool = False,
) -> WindowSet:
    """Compute every window class by direct application of the definitions."""
    overlapping: list[Window] = []
    unmatched: list[Window] = []
    negating: list[Window] = []

    for r in positive:
        matching = [
            s
            for s in negative
            if theta.evaluate(r, s) and r.start < s.end and s.start < r.end
        ]
        # Overlapping windows: one per matching pair, spanning the intersection.
        for s in matching:
            overlap = r.interval.intersect(s.interval)
            assert overlap is not None
            overlapping.append(
                Window(
                    fact_r=r.fact,
                    fact_s=s.fact,
                    start=overlap.start,
                    end=overlap.end,
                    lineage_r=r.lineage,
                    lineage_s=s.lineage,
                    window_class=WindowClass.OVERLAPPING,
                    source_start=r.start,
                    source_end=r.end,
                )
            )
        # Unmatched and negating windows: partition r's interval into maximal
        # segments with a constant set of valid matching tuples.
        segments = partition_by_validity(r.interval, [s.interval for s in matching])
        for segment, active in segments:
            if not active:
                unmatched.append(
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
            else:
                negating.append(
                    Window(
                        fact_r=r.fact,
                        fact_s=None,
                        start=segment.start,
                        end=segment.end,
                        lineage_r=r.lineage,
                        lineage_s=disjunction_of(matching[i].lineage for i in active),
                        window_class=WindowClass.NEGATING,
                        source_start=r.start,
                        source_end=r.end,
                    )
                )

    unmatched_s: tuple[Window, ...] = ()
    negating_s: tuple[Window, ...] = ()
    if include_reverse:
        from ..core.joins import swap_theta

        reverse = naive_windows(negative, positive, swap_theta(theta))
        unmatched_s = reverse.unmatched_r
        negating_s = reverse.negating_r
    return WindowSet(
        tuple(overlapping), tuple(unmatched), tuple(negating), unmatched_s, negating_s
    )


def naive_anti_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """Anti join computed from the naive windows (the correctness oracle)."""
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    windows = naive_windows(merged, negative, theta)
    tuples = [
        window_to_positive_tuple(w) for w in (*windows.unmatched_r, *windows.negating_r)
    ]
    result = merged.derived(positive.schema, tuples, name=f"naive({positive.name} ▷ {negative.name})")
    return result.with_probabilities() if compute_probabilities else result


def naive_left_outer_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """Left outer join computed from the naive windows (the correctness oracle)."""
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    windows = naive_windows(merged, negative, theta)
    schema = combined_output_schema(positive.schema, negative.schema, negative.name)
    left_width, right_width = len(positive.schema), len(negative.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*windows.unmatched_r, *windows.overlapping, *windows.negating_r)
    ]
    result = merged.derived(schema, tuples, name=f"naive({positive.name} ⟕ {negative.name})")
    return result.with_probabilities() if compute_probabilities else result


def naive_full_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """Full outer join computed from the naive windows (the correctness oracle)."""
    events = left.events.merge(right.events)
    merged = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    windows = naive_windows(merged, right, theta, include_reverse=True)
    schema = combined_output_schema(left.schema, right.schema, right.name)
    left_width, right_width = len(left.schema), len(right.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*windows.unmatched_r, *windows.overlapping, *windows.negating_r)
    ]
    tuples.extend(
        window_to_tuple(w, left_width, right_width, left_is_positive=False)
        for w in (*windows.unmatched_s, *windows.negating_s)
    )
    result = merged.derived(schema, tuples, name=f"naive({left.name} ⟗ {right.name})")
    return result.with_probabilities() if compute_probabilities else result


#: Join-kind name → naive join; the engine's ``USING NAIVE`` strategy table.
NAIVE_JOINS = dict(
    anti=naive_anti_join,
    left_outer=naive_left_outer_join,
    full_outer=naive_full_outer_join,
)
