"""Tests for repro.lineage.events."""

from __future__ import annotations

import pytest

from repro.lineage import (
    EventSpace,
    InvalidProbabilityError,
    UnknownEventError,
    Var,
    lineage_and,
)


class TestRegistration:
    def test_register_and_lookup(self):
        space = EventSpace()
        space.register("a1", 0.7)
        assert space.probability("a1") == 0.7
        assert "a1" in space
        assert len(space) == 1

    def test_constructor_mapping(self):
        space = EventSpace({"a1": 0.7, "b1": 0.2})
        assert space.probability("b1") == 0.2

    def test_invalid_probability(self):
        space = EventSpace()
        with pytest.raises(InvalidProbabilityError):
            space.register("a1", 1.5)
        with pytest.raises(InvalidProbabilityError):
            space.register("a1", -0.1)

    def test_boundary_probabilities_allowed(self):
        space = EventSpace({"certain": 1.0, "impossible": 0.0})
        assert space.probability("certain") == 1.0
        assert space.probability("impossible") == 0.0

    def test_reregistering_same_probability_is_idempotent(self):
        space = EventSpace({"a1": 0.7})
        space.register("a1", 0.7)
        assert len(space) == 1

    def test_reregistering_different_probability_raises(self):
        space = EventSpace({"a1": 0.7})
        with pytest.raises(ValueError):
            space.register("a1", 0.8)

    def test_unknown_event(self):
        with pytest.raises(UnknownEventError):
            EventSpace().probability("missing")


class TestOperations:
    def test_merge_combines_disjoint_spaces(self):
        merged = EventSpace({"a1": 0.7}).merge(EventSpace({"b1": 0.2}))
        assert merged.probability("a1") == 0.7
        assert merged.probability("b1") == 0.2

    def test_merge_conflicting_probability_raises(self):
        with pytest.raises(ValueError) as failure:
            EventSpace({"a1": 0.7}).merge(EventSpace({"a1": 0.2}))
        assert str(failure.value) == (
            "event 'a1' already registered with probability 0.7, "
            "refusing to overwrite with 0.2"
        )

    def test_merge_reports_the_first_conflict_in_the_other_spaces_order(self):
        mine = EventSpace({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4})
        theirs = EventSpace({"e": 0.5, "d": 0.9, "a": 0.1, "b": 0.8})
        with pytest.raises(ValueError, match="^event 'd' already registered with probability 0.4,"):
            mine.merge(theirs)
        with pytest.raises(ValueError, match="^event 'b' already registered with probability 0.8,"):
            theirs.merge(mine)

    def test_merge_keeps_both_orders_and_the_other_spaces_values(self):
        merged = EventSpace({"a": 0.5, "b": 1.0}).merge(EventSpace({"c": 0.2, "b": 1}))
        assert list(merged) == ["a", "b", "c"]
        assert type(merged.probability("b")) is int

    def test_merging_a_space_with_itself_returns_a_new_equal_space(self):
        space = EventSpace({"a1": 0.7, "b1": 1})
        merged = space.merge(space)
        assert merged is not space
        assert merged.as_dict() == space.as_dict() and list(merged) == list(space)
        merged.register("c1", 0.5)
        assert "c1" not in space

    def test_spaces_over_one_mapping_merge_into_a_copy(self):
        space = EventSpace({"a1": 0.7})
        twin = EventSpace()
        twin._probabilities = space._probabilities
        merged = space.merge(twin)
        assert merged.as_dict() == {"a1": 0.7}
        assert merged._probabilities is not space._probabilities

    def test_two_conflicting_spaces_still_raise(self):
        with pytest.raises(ValueError, match="^event 'a1' already registered"):
            EventSpace({"a1": 0.7, "b1": 0.1}).merge(EventSpace({"b1": 0.1, "a1": 0.2}))

    def test_merge_does_not_mutate_inputs(self):
        left = EventSpace({"a1": 0.7})
        left.merge(EventSpace({"b1": 0.2}))
        assert "b1" not in left

    def test_names_sorted(self):
        assert EventSpace({"b": 0.1, "a": 0.2}).names() == ["a", "b"]

    def test_as_dict_returns_copy(self):
        space = EventSpace({"a": 0.5})
        exported = space.as_dict()
        exported["a"] = 0.9
        assert space.probability("a") == 0.5

    def test_validate_lineage(self):
        space = EventSpace({"a1": 0.7})
        space.validate_lineage(Var("a1"))
        with pytest.raises(UnknownEventError):
            space.validate_lineage(lineage_and(Var("a1"), Var("b9")))

    def test_restrict(self):
        space = EventSpace({"a": 0.1, "b": 0.2, "c": 0.3})
        restricted = space.restrict(["a", "c"])
        assert set(restricted.names()) == {"a", "c"}
        with pytest.raises(UnknownEventError):
            space.restrict(["zz"])

    def test_iteration(self):
        assert set(iter(EventSpace({"a": 0.1, "b": 0.2}))) == {"a", "b"}
