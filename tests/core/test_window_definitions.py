"""Table I as executable predicates: the algorithms' windows satisfy the definitions.

The declarative predicates in :mod:`repro.core.windows` restate the paper's
Table I per time point.  Here we check that every window produced by the NJ
pipeline (overlap join → LAWAU → LAWAN) satisfies the definition of its
class, that it satisfies *only* that definition, and that together the
windows cover exactly the right time points.
"""

from __future__ import annotations

import pytest

from repro.core import (
    classify_window,
    compute_windows,
    is_negating_window,
    is_overlapping_window,
    is_unmatched_window,
    matching_lineage_at,
)
from repro.lineage import equivalent
from tests.conftest import make_random_relations
from tests.temporal.intervalset import IntervalSet


SEEDS = [0, 1, 2, 3, 4]


class TestPaperExampleDefinitions:
    def test_every_window_satisfies_its_class_definition(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        for window in windows.overlapping:
            assert is_overlapping_window(window, wants_to_visit, hotel_availability, loc_theta)
        for window in windows.unmatched_r:
            assert is_unmatched_window(window, wants_to_visit, hotel_availability, loc_theta)
        for window in windows.negating_r:
            assert is_negating_window(window, wants_to_visit, hotel_availability, loc_theta)

    def test_classes_are_mutually_exclusive(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        for window in windows.unmatched_r + windows.overlapping + windows.negating_r:
            satisfied = [
                is_overlapping_window(window, wants_to_visit, hotel_availability, loc_theta),
                is_unmatched_window(window, wants_to_visit, hotel_availability, loc_theta),
                is_negating_window(window, wants_to_visit, hotel_availability, loc_theta),
            ]
            assert sum(satisfied) == 1

    def test_classify_window_matches_the_emitted_class(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        for window in windows.unmatched_r + windows.overlapping + windows.negating_r:
            assert classify_window(
                window, wants_to_visit, hotel_availability, loc_theta
            ) is window.window_class

    def test_matching_lineage_at_examples(self, wants_to_visit, hotel_availability, loc_theta):
        ann = wants_to_visit.tuples[0]
        # At t=3 no hotel in ZAK is available → null.
        assert matching_lineage_at(ann, hotel_availability, loc_theta, 3) is None
        # At t=5 both hotel1 (b3) and hotel2 (b2) match.
        lineage = matching_lineage_at(ann, hotel_availability, loc_theta, 5)
        assert lineage is not None and lineage.variables() == {"b2", "b3"}


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomisedDefinitions:
    def test_all_windows_satisfy_their_definitions(self, seed):
        positive, negative, theta = make_random_relations(seed)
        windows = compute_windows(positive, negative, theta)
        for window in windows.overlapping:
            assert is_overlapping_window(window, positive, negative, theta)
        for window in windows.unmatched_r:
            assert is_unmatched_window(window, positive, negative, theta)
        for window in windows.negating_r:
            assert is_negating_window(window, positive, negative, theta)

    def test_unmatched_and_negating_windows_partition_each_positive_tuple(self, seed):
        """For every positive tuple, UN ∪ WN ∪ (projections of WO) covers its interval.

        The unmatched and negating windows of one positive tuple are disjoint
        and, together, cover exactly the tuple's validity interval (every time
        point is either matched — negating — or not — unmatched).
        """
        positive, negative, theta = make_random_relations(seed)
        windows = compute_windows(positive, negative, theta)
        for r in positive:
            own = [
                w
                for w in (*windows.unmatched_r, *windows.negating_r)
                if w.fact_r == r.fact and equivalent(w.lineage_r, r.lineage)
                and w.source_interval == r.interval
            ]
            covered = IntervalSet([w.interval for w in own])
            assert covered.duration == r.interval.duration
            assert covered.covers(r.interval)
            # disjointness: total duration equals the sum of the pieces
            assert sum(w.interval.duration for w in own) == r.interval.duration

    def test_overlapping_windows_are_exactly_the_matching_pairs(self, seed):
        positive, negative, theta = make_random_relations(seed)
        windows = compute_windows(positive, negative, theta)
        expected = set()
        for r in positive:
            for s in negative:
                if theta.evaluate(r, s):
                    overlap = r.interval.intersect(s.interval)
                    if overlap is not None:
                        expected.add((r.fact, s.fact, overlap))
        produced = {(w.fact_r, w.fact_s, w.interval) for w in windows.overlapping}
        assert produced == expected
