"""Tests for repro.relation.relation."""

from __future__ import annotations

import pytest

from repro.lineage import EventSpace, Var, lineage_and
from repro.relation import ConstraintViolation, Schema, SchemaError, TPRelation, TPTuple
from repro.temporal import Interval


@pytest.fixture()
def booking_a() -> TPRelation:
    return TPRelation.from_rows(
        Schema.of("Name", "Loc"),
        [("Ann", "ZAK", "a1", 2, 8, 0.7), ("Jim", "WEN", "a2", 7, 10, 0.8)],
        name="a",
    )


class TestFromRows:
    def test_builds_base_tuples_and_registers_events(self, booking_a):
        assert len(booking_a) == 2
        assert booking_a.events.probability("a1") == 0.7
        first = booking_a.tuples[0]
        assert first.lineage == Var("a1")
        assert first.interval == Interval(2, 8)

    def test_wrong_arity_row(self):
        with pytest.raises(SchemaError):
            TPRelation.from_rows(Schema.of("A", "B"), [("x", "e1", 1, 2, 0.5)])

    def test_shared_event_space(self, booking_a):
        other = TPRelation.from_rows(
            Schema.of("Hotel", "Loc"),
            [("hotel1", "ZAK", "b3", 4, 6, 0.7)],
            events=booking_a.events,
            name="b",
        )
        assert other.events is booking_a.events
        assert booking_a.events.probability("b3") == 0.7


class TestConstraint:
    def test_same_fact_overlapping_intervals_rejected(self):
        with pytest.raises(ConstraintViolation):
            TPRelation.from_rows(
                Schema.of("Name"),
                [("Ann", "e1", 1, 5, 0.5), ("Ann", "e2", 3, 8, 0.5)],
            )

    def test_same_fact_adjacent_intervals_allowed(self):
        relation = TPRelation.from_rows(
            Schema.of("Name"),
            [("Ann", "e1", 1, 5, 0.5), ("Ann", "e2", 5, 8, 0.5)],
        )
        assert len(relation) == 2

    def test_different_facts_may_overlap(self):
        relation = TPRelation.from_rows(
            Schema.of("Name"),
            [("Ann", "e1", 1, 5, 0.5), ("Bob", "e2", 3, 8, 0.5)],
        )
        assert len(relation) == 2

    def test_check_can_be_disabled_for_derived_relations(self):
        events = EventSpace({"e1": 0.5, "e2": 0.5})
        tuples = [
            TPTuple(("Ann",), Var("e1"), Interval(1, 5)),
            TPTuple(("Ann",), Var("e2"), Interval(3, 8)),
        ]
        relation = TPRelation(Schema.of("Name"), tuples, events, check_constraint=False)
        with pytest.raises(ConstraintViolation):
            relation.check_duplicate_free()

    def test_validate_lineages(self, booking_a):
        for tp_tuple in booking_a:
            booking_a.events.validate_lineage(tp_tuple.lineage)
        bad = booking_a.derived(
            booking_a.schema,
            [TPTuple(("X", "Y"), Var("unknown"), Interval(1, 2))],
        )
        with pytest.raises(KeyError):
            for tp_tuple in bad:
                bad.events.validate_lineage(tp_tuple.lineage)


class TestAccessors:
    def test_attribute_values(self, booking_a):
        assert booking_a.attribute_values("Loc") == ["ZAK", "WEN"]

    def test_timespan(self, booking_a):
        assert booking_a.timespan() == Interval(2, 10)

    def test_timespan_empty(self):
        assert TPRelation(Schema.of("A")).timespan() is None

    def test_bool_and_len(self, booking_a):
        assert booking_a
        assert not TPRelation(Schema.of("A"))

    def test_repr_mentions_name_and_size(self, booking_a):
        assert "a" in repr(booking_a)
        assert "2 tuples" in repr(booking_a)


class TestDerivation:
    def test_with_probabilities(self, booking_a):
        derived = booking_a.derived(
            booking_a.schema,
            [TPTuple(("Ann", "ZAK"), lineage_and(Var("a1"), Var("a2")), Interval(7, 8))],
        )
        filled = derived.with_probabilities()
        assert filled.tuples[0].probability == pytest.approx(0.56)

    def test_filter(self, booking_a):
        only_ann = booking_a.filter(lambda t: t.fact[0] == "Ann")
        assert len(only_ann) == 1
        assert only_ann.tuples[0].fact[0] == "Ann"

    def test_head(self, booking_a):
        assert len(booking_a.head(1)) == 1
        assert booking_a.head(10).tuples == booking_a.tuples

    def test_pretty(self, booking_a):
        text = booking_a.pretty()
        assert "Name" in text and "Ann" in text
        truncated = booking_a.pretty(max_rows=1)
        assert "more" in truncated
