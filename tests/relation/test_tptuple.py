"""Tests for repro.relation.tptuple."""

from __future__ import annotations

import pytest

from repro.lineage import Var
from repro.relation import TPTuple
from repro.temporal import Interval


class TestConstruction:
    def test_base_tuple(self):
        tp_tuple = TPTuple.base(("Ann", "ZAK"), "a1", Interval(2, 8), 0.7)
        assert tp_tuple.fact == ("Ann", "ZAK")
        assert tp_tuple.lineage == Var("a1")
        assert tp_tuple.interval == Interval(2, 8)
        assert tp_tuple.probability == 0.7

    def test_start_end_shortcuts(self):
        tp_tuple = TPTuple.base(("x",), "e", Interval(3, 9), 0.5)
        assert tp_tuple.start == 3
        assert tp_tuple.end == 9

    def test_value_accessor(self):
        tp_tuple = TPTuple.base(("Ann", "ZAK"), "a1", Interval(2, 8), 0.7)
        assert tp_tuple.value(1) == "ZAK"

    def test_tuples_are_frozen(self):
        tp_tuple = TPTuple.base(("x",), "e", Interval(1, 2), 0.5)
        with pytest.raises(AttributeError):
            tp_tuple.fact = ("y",)  # type: ignore[misc]


class TestDerivation:
    def test_with_interval(self):
        tp_tuple = TPTuple.base(("x",), "e", Interval(1, 9), 0.5)
        shrunk = tp_tuple.with_interval(Interval(2, 4))
        assert shrunk.interval == Interval(2, 4)
        assert shrunk.fact == tp_tuple.fact
        assert tp_tuple.interval == Interval(1, 9)

    def test_key_is_sortable_with_none_padding(self):
        padded = TPTuple(("Ann", None), Var("a1"), Interval(2, 4))
        plain = TPTuple(("Ann", "hotel1"), Var("a1"), Interval(2, 4))
        assert sorted([padded, plain], key=lambda t: t.key())[0] is plain

    def test_key_distinguishes_lineage(self):
        first = TPTuple(("x",), Var("a"), Interval(1, 2))
        second = TPTuple(("x",), Var("b"), Interval(1, 2))
        assert first.key() != second.key()


class TestPresentation:
    def test_str_renders_nulls_as_dash(self):
        tp_tuple = TPTuple(("Ann", None), Var("a1"), Interval(2, 4), 0.7)
        assert "Ann, -" in str(tp_tuple)
        assert "[2,4)" in str(tp_tuple)

    def test_str_unknown_probability(self):
        tp_tuple = TPTuple(("Ann",), Var("a1"), Interval(2, 4))
        assert "| ?" in str(tp_tuple)
