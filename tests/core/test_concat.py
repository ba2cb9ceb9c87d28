"""Tests for the lineage-concatenation functions and output-tuple formation."""

from __future__ import annotations

import pytest

from repro.core import (
    CONCAT_BY_CLASS,
    Window,
    WindowClass,
    concat_and,
    concat_and_not,
    concat_pass,
    output_lineage,
    window_to_positive_tuple,
    window_to_tuple,
)
from repro.lineage import Var, lineage_or
from repro.temporal import Interval


def _window(window_class: WindowClass, lineage_s=None, fact_s=None) -> Window:
    return Window(
        fact_r=("Ann", "ZAK"),
        fact_s=fact_s,
        start=4,
        end=6,
        lineage_r=Var("a1"),
        lineage_s=lineage_s,
        window_class=window_class,
        source_start=2,
        source_end=8,
    )


class TestConcatenationFunctions:
    def test_and_for_overlapping(self):
        assert str(concat_and(Var("a1"), Var("b3"))) == "a1 ∧ b3"

    def test_and_requires_negative_lineage(self):
        with pytest.raises(ValueError):
            concat_and(Var("a1"), None)

    def test_pass_for_unmatched(self):
        assert concat_pass(Var("a1"), None) == Var("a1")

    def test_pass_rejects_negative_lineage(self):
        with pytest.raises(ValueError):
            concat_pass(Var("a1"), Var("b3"))

    def test_and_not_for_negating(self):
        result = concat_and_not(Var("a1"), lineage_or(Var("b3"), Var("b2")))
        assert str(result) == "a1 ∧ ¬(b3 ∨ b2)"

    def test_and_not_requires_negative_lineage(self):
        with pytest.raises(ValueError):
            concat_and_not(Var("a1"), None)

    def test_mapping_covers_every_class(self):
        assert set(CONCAT_BY_CLASS) == set(WindowClass)


class TestOutputLineage:
    def test_overlapping(self):
        window = _window(WindowClass.OVERLAPPING, Var("b3"), fact_s=("hotel1", "ZAK"))
        assert str(output_lineage(window)) == "a1 ∧ b3"

    def test_unmatched(self):
        window = _window(WindowClass.UNMATCHED)
        assert output_lineage(window) == Var("a1")

    def test_negating(self):
        window = _window(WindowClass.NEGATING, lineage_or(Var("b3"), Var("b2")))
        assert str(output_lineage(window)) == "a1 ∧ ¬(b3 ∨ b2)"


class TestTupleFormation:
    def test_overlapping_window_combines_both_facts(self):
        window = _window(WindowClass.OVERLAPPING, Var("b3"), fact_s=("hotel1", "ZAK"))
        tp_tuple = window_to_tuple(window, left_width=2, right_width=2)
        assert tp_tuple.fact == ("Ann", "ZAK", "hotel1", "ZAK")
        assert tp_tuple.interval == Interval(4, 6)
        assert tp_tuple.probability is None

    def test_unmatched_window_pads_the_negative_side(self):
        window = _window(WindowClass.UNMATCHED)
        tp_tuple = window_to_tuple(window, left_width=2, right_width=2)
        assert tp_tuple.fact == ("Ann", "ZAK", None, None)

    def test_reverse_direction_pads_the_positive_columns_on_the_left(self):
        window = _window(WindowClass.NEGATING, Var("b3"))
        tp_tuple = window_to_tuple(window, left_width=3, right_width=2, left_is_positive=False)
        assert tp_tuple.fact == (None, None, None, "Ann", "ZAK")
        assert str(tp_tuple.lineage) == "a1 ∧ ¬b3"

    def test_positive_only_tuple_for_anti_join(self):
        window = _window(WindowClass.NEGATING, lineage_or(Var("b3"), Var("b2")))
        tp_tuple = window_to_positive_tuple(window)
        assert tp_tuple.fact == ("Ann", "ZAK")
        assert str(tp_tuple.lineage) == "a1 ∧ ¬(b3 ∨ b2)"
