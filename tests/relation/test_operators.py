"""Tests for the non-join TP operators."""

from __future__ import annotations

import pytest

from repro.lineage import Var, lineage_or
from repro.relation import (
    Schema,
    TPRelation,
    project,
    rename,
    select,
    select_eq,
    snapshot,
    timeslice,
)
from repro.temporal import Interval


@pytest.fixture()
def bookings() -> TPRelation:
    return TPRelation.from_rows(
        Schema.of("Name", "Loc"),
        [
            ("Ann", "ZAK", "a1", 2, 8, 0.7),
            ("Jim", "WEN", "a2", 7, 10, 0.8),
            ("Ann", "WEN", "a3", 9, 12, 0.5),
        ],
        name="bookings",
    )


class TestSelection:
    def test_select_by_predicate(self, bookings):
        result = select(bookings, lambda fact: fact[1] == "WEN")
        assert len(result) == 2
        assert all(t.fact[1] == "WEN" for t in result)

    def test_select_eq(self, bookings):
        result = select_eq(bookings, "Name", "Ann")
        assert {t.fact for t in result} == {("Ann", "ZAK"), ("Ann", "WEN")}

    def test_selection_preserves_lineage_and_interval(self, bookings):
        result = select_eq(bookings, "Name", "Jim")
        tp_tuple = result.tuples[0]
        assert tp_tuple.lineage == Var("a2")
        assert tp_tuple.interval == Interval(7, 10)


class TestTimeslice:
    def test_clips_intervals(self, bookings):
        result = timeslice(bookings, Interval(7, 9))
        assert {(t.fact, t.interval) for t in result} == {
            (("Ann", "ZAK"), Interval(7, 8)),
            (("Jim", "WEN"), Interval(7, 9)),
        }

    def test_drops_non_overlapping(self, bookings):
        result = timeslice(bookings, Interval(0, 2))
        assert len(result) == 0

    def test_snapshot(self, bookings):
        valid = snapshot(bookings, 7)
        assert {t.fact for t in valid} == {("Ann", "ZAK"), ("Jim", "WEN")}


class TestProjection:
    def test_projection_merges_lineages_on_overlap(self, bookings):
        result = project(bookings, ["Name"])
        ann_rows = [t for t in result if t.fact == ("Ann",)]
        # Ann appears in two source tuples with non-overlapping intervals:
        # [2,8) from a1 and [9,12) from a3 — they stay separate tuples.
        assert {t.interval for t in ann_rows} == {Interval(2, 8), Interval(9, 12)}

    def test_projection_disjoins_lineage_when_facts_collapse(self):
        relation = TPRelation.from_rows(
            Schema.of("Name", "Loc"),
            [("Ann", "ZAK", "e1", 1, 5, 0.5), ("Ann", "WEN", "e2", 3, 8, 0.4)],
        )
        result = project(relation, ["Name"])
        overlap_rows = [t for t in result if t.interval == Interval(3, 5)]
        assert len(overlap_rows) == 1
        assert overlap_rows[0].lineage == lineage_or(Var("e1"), Var("e2"))

    def test_projection_result_is_duplicate_free(self):
        relation = TPRelation.from_rows(
            Schema.of("Name", "Loc"),
            [("Ann", "ZAK", "e1", 1, 5, 0.5), ("Ann", "WEN", "e2", 3, 8, 0.4)],
        )
        project(relation, ["Name"]).check_duplicate_free()

    def test_projection_probability_of_disjunction(self):
        relation = TPRelation.from_rows(
            Schema.of("Name", "Loc"),
            [("Ann", "ZAK", "e1", 1, 5, 0.5), ("Ann", "WEN", "e2", 3, 8, 0.4)],
        )
        result = project(relation, ["Name"]).with_probabilities()
        overlap_row = next(t for t in result if t.interval == Interval(3, 5))
        assert overlap_row.probability == pytest.approx(1 - 0.5 * 0.6)


class TestRename:
    def test_rename(self, bookings):
        renamed = rename(bookings, {"Loc": "Location"})
        assert renamed.schema.attributes == ("Name", "Location")
        assert len(renamed) == len(bookings)
