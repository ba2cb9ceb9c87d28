"""The half-open predicates of Interval over Allen's thirteen configurations.

Allen's relations are a complete classification of how two intervals can lie
to each other, so one pair per relation covers every boundary case of
``overlaps``, ``intersect`` and ``contains_interval`` — in particular that
intervals which only meet share no time point.
"""

from __future__ import annotations

import pytest

from repro.temporal import Interval

# (a, b, relation of a to b)
CASES = [
    (Interval(1, 3), Interval(5, 8), "before"),
    (Interval(5, 8), Interval(1, 3), "after"),
    (Interval(1, 3), Interval(3, 8), "meets"),
    (Interval(3, 8), Interval(1, 3), "met_by"),
    (Interval(1, 5), Interval(3, 8), "overlaps"),
    (Interval(3, 8), Interval(1, 5), "overlapped_by"),
    (Interval(1, 3), Interval(1, 8), "starts"),
    (Interval(1, 8), Interval(1, 3), "started_by"),
    (Interval(3, 5), Interval(1, 8), "during"),
    (Interval(1, 8), Interval(3, 5), "contains"),
    (Interval(5, 8), Interval(1, 8), "finishes"),
    (Interval(1, 8), Interval(5, 8), "finished_by"),
    (Interval(2, 6), Interval(2, 6), "equal"),
]
IDS = [relation for _, _, relation in CASES]

DISJOINT = {"before", "after", "meets", "met_by"}
A_CONTAINS_B = {"started_by", "contains", "finished_by", "equal"}


def test_the_thirteen_relations_are_distinct():
    assert len(set(IDS)) == 13


@pytest.mark.parametrize("a, b, relation", CASES, ids=IDS)
def test_overlaps_follows_the_relation(a, b, relation):
    assert a.overlaps(b) == (relation not in DISJOINT)


@pytest.mark.parametrize("a, b, relation", CASES, ids=IDS)
def test_overlaps_is_symmetric(a, b, relation):
    assert a.overlaps(b) == b.overlaps(a)


@pytest.mark.parametrize("a, b, relation", CASES, ids=IDS)
def test_intersect_is_none_exactly_when_disjoint(a, b, relation):
    overlap = a.intersect(b)
    assert (overlap is None) == (relation in DISJOINT)
    if overlap is not None:
        assert a.contains_interval(overlap) and b.contains_interval(overlap)
        assert overlap == b.intersect(a)


@pytest.mark.parametrize("a, b, relation", CASES, ids=IDS)
def test_contains_interval_follows_the_relation(a, b, relation):
    assert a.contains_interval(b) == (relation in A_CONTAINS_B)


def test_overlaps_agrees_with_shared_time_points_over_a_grid():
    intervals = [Interval(s, e) for s in range(0, 5) for e in range(s + 1, 6)]
    for a in intervals:
        for b in intervals:
            shared = set(a.time_points()) & set(b.time_points())
            assert a.overlaps(b) == bool(shared)
