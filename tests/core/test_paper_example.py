"""Golden tests: the paper's running example (Fig. 1 and Example 2).

These tests pin the library's output, tuple for tuple, to the result table
printed in the paper (Fig. 1b) and to the windows described in Example 2 /
Fig. 2.
"""

from __future__ import annotations

import pytest

from repro import (
    compute_windows,
    tp_anti_join,
    tp_full_outer_join,
    tp_left_outer_join,
    tp_right_outer_join,
)
from repro.lineage import canonical
from repro.temporal import Interval


def _rows(relation):
    return {
        (t.fact, t.interval.start, t.interval.end, str(canonical(t.lineage)), round(t.probability, 4))
        for t in relation
    }


#: The paper's Fig. 1b: Q = a ⟕ b with θ : a.Loc = b.Loc.
FIG_1B = {
    (("Ann", "ZAK", None, None), 2, 4, "a1", 0.7),
    (("Ann", "ZAK", "hotel1", "ZAK"), 4, 6, "a1 ∧ b3", 0.49),
    (("Ann", "ZAK", "hotel2", "ZAK"), 5, 8, "a1 ∧ b2", 0.42),
    (("Ann", "ZAK", None, None), 4, 5, "a1 ∧ ¬b3", 0.21),
    (("Ann", "ZAK", None, None), 5, 6, "a1 ∧ ¬(b2 ∨ b3)", 0.084),
    (("Ann", "ZAK", None, None), 6, 8, "a1 ∧ ¬b2", 0.28),
    (("Jim", "WEN", None, None), 7, 10, "a2", 0.8),
}


class TestFigure1b:
    def test_left_outer_join_reproduces_the_result_table(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert _rows(result) == FIG_1B

    def test_result_has_exactly_seven_tuples(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert len(result) == 7

    def test_output_schema_combines_both_inputs(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert result.schema.attributes == ("Name", "Loc", "Hotel", "b.Loc")

    def test_probability_of_specific_answer_tuples(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        by_key = {
            (t.fact, t.interval): t.probability for t in result
        }
        # "with probability 0.49, Ann wants to visit Zakynthos and stay at hotel1"
        assert by_key[(("Ann", "ZAK", "hotel1", "ZAK"), Interval(4, 6))] == pytest.approx(0.49)
        # "Over the interval [5,6) there is 0.084 probability that Ann wants to
        #  visit Zakynthos but finds no accommodation."
        assert by_key[(("Ann", "ZAK", None, None), Interval(5, 6))] == pytest.approx(0.084)


class TestExample2Windows:
    """The windows of a with respect to b shown in the paper's Fig. 2."""

    def test_window_counts_match_figure_2(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        assert len(windows.unmatched_r) == 2   # w1, w2
        assert len(windows.overlapping) == 2   # w3, w4
        assert len(windows.negating_r) == 3    # w5, w6, w7

    def test_unmatched_window_w1(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        w1 = next(w for w in windows.unmatched_r if w.fact_r == ("Ann", "ZAK"))
        assert w1.interval == Interval(2, 4)
        assert str(w1.lineage_r) == "a1"
        assert w1.fact_s is None and w1.lineage_s is None

    def test_unmatched_window_w2_spans_jims_whole_interval(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        w2 = next(w for w in windows.unmatched_r if w.fact_r == ("Jim", "WEN"))
        assert w2.interval == Interval(7, 10)

    def test_overlapping_window_w3(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        w3 = next(w for w in windows.overlapping if w.fact_s == ("hotel1", "ZAK"))
        assert w3.interval == Interval(4, 6)
        assert str(w3.lineage_r) == "a1"
        assert str(w3.lineage_s) == "b3"

    def test_negating_window_w6(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        w6 = next(w for w in windows.negating_r if w.interval == Interval(5, 6))
        assert w6.fact_r == ("Ann", "ZAK")
        assert w6.fact_s is None
        assert str(canonical(w6.lineage_s)) == "b2 ∨ b3"

    def test_all_negating_windows(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        described = {
            (w.interval, str(canonical(w.lineage_s))) for w in windows.negating_r
        }
        assert described == {
            (Interval(4, 5), "b3"),
            (Interval(5, 6), "b2 ∨ b3"),
            (Interval(6, 8), "b2"),
        }

    def test_every_window_carries_its_source_interval(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        windows = compute_windows(wants_to_visit, hotel_availability, loc_theta)
        for window in windows.unmatched_r + windows.overlapping + windows.negating_r:
            assert window.source_interval is not None
            assert window.source_interval.contains_interval(window.interval)


class TestOtherOperatorsOnThePaperExample:
    def test_anti_join_keeps_only_negated_and_unmatched_tuples(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_anti_join(wants_to_visit, hotel_availability, loc_theta)
        assert _rows(result) == {
            (("Ann", "ZAK"), 2, 4, "a1", 0.7),
            (("Jim", "WEN"), 7, 10, "a2", 0.8),
            (("Ann", "ZAK"), 4, 5, "a1 ∧ ¬b3", 0.21),
            (("Ann", "ZAK"), 5, 6, "a1 ∧ ¬(b2 ∨ b3)", 0.084),
            (("Ann", "ZAK"), 6, 8, "a1 ∧ ¬b2", 0.28),
        }

    def test_anti_join_schema_is_the_positive_schema(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_anti_join(wants_to_visit, hotel_availability, loc_theta)
        assert result.schema.attributes == wants_to_visit.schema.attributes

    def test_right_outer_join_pads_the_left_side(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_right_outer_join(wants_to_visit, hotel_availability, loc_theta)
        rows = _rows(result)
        # hotel3 in Sorrento never matches anything: unmatched over [1,4).
        assert ((None, None, "hotel3", "SOR"), 1, 4, "b1", 0.9) in rows
        # hotel1 while Ann's visit is uncertain: b3 ∧ ¬a1 over [4,6).
        assert ((None, None, "hotel1", "ZAK"), 4, 6, "a1", 0.7) not in rows
        assert ((None, None, "hotel1", "ZAK"), 4, 6, "b3 ∧ ¬a1", round(0.7 * 0.3, 4)) in rows

    def test_full_outer_join_is_union_of_left_and_right_parts(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        left = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        right = tp_right_outer_join(wants_to_visit, hotel_availability, loc_theta)
        full = tp_full_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert _rows(full) == _rows(left) | _rows(right)
