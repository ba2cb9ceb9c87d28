"""Tests for repro.lineage.probability."""

from __future__ import annotations

import sys

import pytest

from repro.lineage import (
    FALSE,
    TRUE,
    EventSpace,
    ProbabilityComputer,
    Var,
    and_not,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
)


@pytest.fixture()
def events() -> EventSpace:
    return EventSpace({"a1": 0.7, "a2": 0.8, "b1": 0.9, "b2": 0.6, "b3": 0.7})


class TestBasics:
    def test_constants(self, events):
        assert probability(TRUE, events) == 1.0
        assert probability(FALSE, events) == 0.0

    def test_single_variable(self, events):
        assert probability(Var("a1"), events) == pytest.approx(0.7)

    def test_negation(self, events):
        assert probability(lineage_not(Var("a1")), events) == pytest.approx(0.3)

    def test_unknown_variable_raises(self, events):
        with pytest.raises(KeyError):
            probability(Var("zz"), events)


class TestIndependentDecomposition:
    def test_conjunction_of_independent_events(self, events):
        assert probability(lineage_and(Var("a1"), Var("b3")), events) == pytest.approx(0.49)

    def test_disjunction_of_independent_events(self, events):
        expected = 1 - (1 - 0.6) * (1 - 0.7)
        assert probability(lineage_or(Var("b2"), Var("b3")), events) == pytest.approx(expected)

    def test_paper_negating_lineage(self, events):
        # ('Ann, ZAK, -', a1 ∧ ¬(b3 ∨ b2), [5,6), 0.084) from Fig. 1b.
        expr = and_not(Var("a1"), lineage_or(Var("b3"), Var("b2")))
        assert probability(expr, events) == pytest.approx(0.084)

    def test_paper_single_negation_lineages(self, events):
        assert probability(and_not(Var("a1"), Var("b3")), events) == pytest.approx(0.21)
        assert probability(and_not(Var("a1"), Var("b2")), events) == pytest.approx(0.28)

    def test_three_way_conjunction(self, events):
        expr = lineage_and(Var("a1"), Var("a2"), Var("b1"))
        assert probability(expr, events) == pytest.approx(0.7 * 0.8 * 0.9)


class TestSharedVariables:
    def test_idempotent_conjunction(self, events):
        assert probability(lineage_and(Var("a1"), Var("a1")), events) == pytest.approx(0.7)

    def test_tautology_via_shannon(self, events):
        expr = lineage_or(Var("a1"), lineage_not(Var("a1")))
        assert probability(expr, events) == pytest.approx(1.0)

    def test_contradiction_via_shannon(self, events):
        expr = lineage_and(Var("a1"), lineage_not(Var("a1")))
        assert probability(expr, events) == pytest.approx(0.0)

    def test_shared_variable_between_operands(self, events):
        # P((a1 ∧ b1) ∨ (a1 ∧ b2)) = P(a1) * P(b1 ∨ b2)
        expr = lineage_or(lineage_and(Var("a1"), Var("b1")), lineage_and(Var("a1"), Var("b2")))
        expected = 0.7 * (1 - (1 - 0.9) * (1 - 0.6))
        assert probability(expr, events) == pytest.approx(expected)

    def test_projection_style_lineage_collapses_to_source(self, events):
        # (a1 ∧ b3) ∨ (a1 ∧ ¬b3) == a1
        expr = lineage_or(lineage_and(Var("a1"), Var("b3")), and_not(Var("a1"), Var("b3")))
        assert probability(expr, events) == pytest.approx(0.7)

    def test_exclusive_cases_sum(self, events):
        # P(a1 ∧ b3) + P(a1 ∧ ¬b3) = P(a1)
        left = probability(lineage_and(Var("a1"), Var("b3")), events)
        right = probability(and_not(Var("a1"), Var("b3")), events)
        assert left + right == pytest.approx(0.7)


class TestComputerAndHelpers:
    def test_computer_reuses_cache(self, events):
        computer = ProbabilityComputer(events)
        expr = lineage_or(lineage_and(Var("a1"), Var("b1")), lineage_and(Var("a1"), Var("b2")))
        first = computer.probability(expr)
        second = computer.probability(expr)
        assert first == second

    def test_sub_expression_shared_across_lineages_hits(self, events):
        """Two windows' lineages over the same negatives: the second call
        finds ``¬(b1 ∨ b2)`` memoised although every node is a new object.
        The positives are derived (a join over a join's output), so the
        memo serves them; over base events the shape is factorised."""
        computer = ProbabilityComputer(events)
        first = computer.probability(
            and_not(lineage_and(Var("a1"), Var("b3")), lineage_or(Var("b1"), Var("b2")))
        )
        assert (computer.cache_hits, first) == (0, pytest.approx(0.7 * 0.7 * 0.1 * 0.4))
        second = computer.probability(
            and_not(lineage_and(Var("a2"), Var("b3")), lineage_or(Var("b1"), Var("b2")))
        )
        assert computer.cache_hits >= 1
        assert computer.factorised == 0
        assert second == ProbabilityComputer(events).probability(
            and_not(lineage_and(Var("a2"), Var("b3")), lineage_or(Var("b1"), Var("b2")))
        )

    def test_forced_memo_reset_keeps_values_bitwise(self, events, monkeypatch):
        """A standing query's computer forgets past the limit; what it
        answers before and after is what a fresh computer answers."""
        # The package re-exports the function ``probability`` over the module.
        module = sys.modules["repro.lineage.probability"]
        monkeypatch.setattr(module, "_MEMO_LIMIT", 3)
        # Derived positives (and, with b3 among the negatives, a shared
        # variable): none of these is factorised, the memo answers them all.
        lineages = [
            and_not(lineage_and(Var(positive), Var("b3")), lineage_or(*map(Var, negatives)))
            for positive in ("a1", "a2")
            for negatives in (("b1", "b2"), ("b2", "b3"), ("b1", "b2", "b3"))
        ]
        computer = ProbabilityComputer(events)
        for lineage in lineages + lineages:
            fresh = ProbabilityComputer(events).probability(lineage)
            assert computer.probability(lineage) == fresh  # bitwise
        assert computer.factorised == 0
        # Without a reset the repeated pass would have been all hits.
        assert computer.cache_misses > 3 * len(lineages)

    def test_events_property(self, events):
        assert ProbabilityComputer(events).events is events

    def test_probability_in_unit_interval_for_deep_expression(self, events):
        expr = lineage_or(
            lineage_and(Var("a1"), Var("b1"), Var("b2")),
            and_not(Var("a2"), lineage_or(Var("b1"), Var("b3"))),
            lineage_not(Var("b2")),
        )
        value = probability(expr, events)
        assert 0.0 <= value <= 1.0
