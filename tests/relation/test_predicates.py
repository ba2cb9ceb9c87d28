"""Tests for repro.relation.predicates (θ conditions)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.relation import (
    EquiJoinCondition,
    PredicateCondition,
    Schema,
    TPTuple,
    TrueCondition,
    UnknownAttributeError,
    equi_join_on,
)
from repro.temporal import Interval


LEFT_SCHEMA = Schema.of("Name", "Loc")
RIGHT_SCHEMA = Schema.of("Hotel", "Loc")


def left_tuple(name: str, loc: str) -> TPTuple:
    return TPTuple.base((name, loc), f"l_{name}", Interval(1, 5), 0.5)


def right_tuple(hotel: str, loc: str) -> TPTuple:
    return TPTuple.base((hotel, loc), f"r_{hotel}", Interval(1, 5), 0.5)


class TestTrueCondition:
    def test_always_true(self):
        condition = TrueCondition()
        assert condition.evaluate(left_tuple("Ann", "ZAK"), right_tuple("h1", "SOR"))

    def test_is_equi_with_constant_keys(self):
        condition = TrueCondition()
        assert condition.is_equi
        assert condition.left_key(left_tuple("Ann", "ZAK")) == condition.right_key(
            right_tuple("h1", "SOR")
        )

    def test_describe(self):
        assert TrueCondition().describe() == "true"


class TestEquiJoinCondition:
    def test_matching_pair(self):
        condition = equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Loc", "Loc")])
        assert condition.evaluate(left_tuple("Ann", "ZAK"), right_tuple("h1", "ZAK"))

    def test_non_matching_pair(self):
        condition = equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Loc", "Loc")])
        assert not condition.evaluate(left_tuple("Ann", "ZAK"), right_tuple("h1", "SOR"))

    def test_keys_align_for_matching_tuples(self):
        condition = equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Loc", "Loc")])
        assert condition.left_key(left_tuple("Ann", "ZAK")) == condition.right_key(
            right_tuple("h1", "ZAK")
        )

    def test_is_equi(self):
        condition = equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Loc", "Loc")])
        assert condition.is_equi

    def test_multiple_pairs(self):
        schema = Schema.of("A", "B")
        condition = EquiJoinCondition(schema, schema, (("A", "A"), ("B", "B")))
        same = TPTuple.base(("x", "y"), "e1", Interval(1, 2), 0.5)
        other = TPTuple.base(("x", "z"), "e2", Interval(1, 2), 0.5)
        assert condition.evaluate(same, same)
        assert not condition.evaluate(same, other)

    def test_unknown_attribute_rejected_at_construction(self):
        with pytest.raises(UnknownAttributeError):
            equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Nope", "Loc")])

    def test_describe(self):
        condition = equi_join_on(LEFT_SCHEMA, RIGHT_SCHEMA, [("Loc", "Loc")])
        assert condition.describe() == "r.Loc = s.Loc"


class TestEquiJoinKeys:
    """Each side's key is one call and the tuple the attribute positions select."""

    SCHEMA = Schema.of("A", "B", "C")
    ONE = (("B", "C"),)
    TWO = (("C", "A"), ("A", "B"))

    def facts(self):
        return [("x", 1, 2.5), (None, "y", "z"), (float("nan"), 0, -1)]

    @pytest.mark.parametrize("pairs", [ONE, TWO], ids=["one", "two"])
    def test_keys_equal_the_positions_generator_expression(self, pairs):
        condition = EquiJoinCondition(self.SCHEMA, self.SCHEMA, pairs)
        positions = [
            (self.SCHEMA.index(left), self.SCHEMA.index(right)) for left, right in pairs
        ]
        for index, fact in enumerate(self.facts()):
            tp_tuple = TPTuple.base(fact, f"e{index}", Interval(1, 2), 0.5)
            left_key = condition.left_key(tp_tuple)
            right_key = condition.right_key(tp_tuple)
            assert type(left_key) is tuple and type(right_key) is tuple
            assert repr(left_key) == repr(tuple(fact[i] for i, _ in positions))
            assert repr(right_key) == repr(tuple(fact[i] for _, i in positions))

    def test_a_condition_without_pairs_keys_everything_alike(self):
        condition = EquiJoinCondition(self.SCHEMA, self.SCHEMA, ())
        tp_tuple = TPTuple.base(("x", 1, 2), "e1", Interval(1, 2), 0.5)
        assert condition.left_key(tp_tuple) == condition.right_key(tp_tuple) == ()

    @pytest.mark.parametrize("pairs", [ONE, TWO], ids=["one", "two"])
    @pytest.mark.parametrize(
        "clone",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_survives_pickle_and_copy(self, pairs, clone):
        condition = EquiJoinCondition(self.SCHEMA, self.SCHEMA, pairs)
        cloned = clone(condition)
        assert cloned == condition and hash(cloned) == hash(condition)
        assert repr(cloned) == repr(condition)
        left = TPTuple.base(("x", 1, 1), "e1", Interval(1, 2), 0.5)
        right = TPTuple.base((1, "x", 1), "e2", Interval(1, 2), 0.5)
        assert cloned.left_key(left) == condition.left_key(left)
        assert cloned.right_key(right) == condition.right_key(right)
        assert cloned.evaluate(left, right) == condition.evaluate(left, right)


class TestPredicateCondition:
    def test_arbitrary_predicate(self):
        condition = PredicateCondition(
            lambda left, right: left[1] == right[1] and left[0] != right[0],
            label="same place, different entity",
        )
        assert condition.evaluate(left_tuple("Ann", "ZAK"), right_tuple("h1", "ZAK"))
        assert not condition.evaluate(left_tuple("Ann", "ZAK"), right_tuple("Ann", "ZAK"))

    def test_not_equi_and_no_keys(self):
        condition = PredicateCondition(lambda left, right: True)
        assert not condition.is_equi
        assert condition.left_key(left_tuple("Ann", "ZAK")) is None
        assert condition.right_key(right_tuple("h1", "ZAK")) is None

    def test_describe_uses_label(self):
        assert PredicateCondition(lambda left, right: True, label="theta").describe() == "theta"
