"""Property-based tests for lineage expressions and probability computation."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    EventSpace,
    ProbabilityComputer,
    Var,
    and_not,
    canonical,
    equivalent,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
    restrict,
    to_nnf,
)

VARIABLE_NAMES = ["v0", "v1", "v2", "v3", "v4"]


def expressions(max_leaves: int = 5):
    """Hypothesis strategy producing small lineage expressions."""
    leaves = st.sampled_from([Var(name) for name in VARIABLE_NAMES])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(lambda a, b: lineage_and(a, b), children, children),
            st.builds(lambda a, b: lineage_or(a, b), children, children),
            st.builds(lineage_not, children),
        ),
        max_leaves=max_leaves,
    )


def event_space_for(seed: int) -> EventSpace:
    rng = random.Random(seed)
    return EventSpace({name: round(rng.uniform(0.05, 0.95), 3) for name in VARIABLE_NAMES})


def brute_force_probability(expr, events: EventSpace) -> float:
    """Reference probability by summing over all possible worlds."""
    names = sorted(expr.variables())
    total = 0.0
    for mask in range(2 ** len(names)):
        assignment = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        weight = 1.0
        for name in names:
            marginal = events.probability(name)
            weight *= marginal if assignment[name] else (1.0 - marginal)
        if expr.evaluate(assignment):
            total += weight
    return total


@given(expressions(), st.integers(min_value=0, max_value=50))
@settings(max_examples=80)
def test_probability_matches_brute_force_enumeration(expr, seed):
    events = event_space_for(seed)
    assert abs(probability(expr, events) - brute_force_probability(expr, events)) < 1e-9


@given(expressions())
@settings(max_examples=80)
def test_probability_is_within_unit_interval(expr):
    events = event_space_for(1)
    value = probability(expr, events)
    assert -1e-12 <= value <= 1.0 + 1e-12


@given(expressions())
@settings(max_examples=80)
def test_negation_complements_probability(expr):
    events = event_space_for(2)
    assert abs(probability(expr, events) + probability(lineage_not(expr), events) - 1.0) < 1e-9


@given(expressions(), expressions())
@settings(max_examples=60)
def test_inclusion_exclusion(left, right):
    events = event_space_for(3)
    p_or = probability(lineage_or(left, right), events)
    p_and = probability(lineage_and(left, right), events)
    assert abs(p_or + p_and - probability(left, events) - probability(right, events)) < 1e-9


@given(expressions())
@settings(max_examples=80)
def test_nnf_and_canonical_preserve_semantics(expr):
    assert equivalent(expr, to_nnf(expr))
    assert equivalent(expr, canonical(expr))


@given(expressions(), st.sampled_from(VARIABLE_NAMES), st.booleans())
@settings(max_examples=80)
def test_restriction_eliminates_the_variable(expr, name, value):
    restricted = restrict(expr, {name: value})
    assert name not in restricted.variables()


@given(expressions(), st.sampled_from(VARIABLE_NAMES))
@settings(max_examples=60)
def test_shannon_expansion_identity(expr, name):
    events = event_space_for(4)
    marginal = events.probability(name)
    expanded = marginal * probability(restrict(expr, {name: True}), events) + (
        1 - marginal
    ) * probability(restrict(expr, {name: False}), events)
    assert abs(probability(expr, events) - expanded) < 1e-9


def join_lineages():
    """NJ output shapes: ``λr``, ``λr ∧ λs`` and ``λr ∧ ¬(λs1 ∨ … ∨ λsn)``."""
    positives = st.sampled_from([Var(name) for name in VARIABLE_NAMES[:2]])
    negatives = st.lists(
        st.sampled_from([Var(name) for name in VARIABLE_NAMES[2:]]),
        min_size=1,
        max_size=3,
        unique=True,
    )
    return st.one_of(
        positives,
        st.builds(lambda r, s: lineage_and(r, s[0]), positives, negatives),
        st.builds(lambda r, s: and_not(r, lineage_or(*s)), positives, negatives),
    )


@given(
    st.lists(st.one_of(join_lineages(), expressions()), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=80)
def test_one_computer_over_shuffled_lineages_equals_fresh_computers_bitwise(
    lineages, rng, seed
):
    """The memo only ever returns what the uncached path computes, so the
    order lineages reach a shared computer in cannot change a single bit."""
    events = event_space_for(seed)
    expected = {id(expr): ProbabilityComputer(events).probability(expr) for expr in lineages}
    rng.shuffle(lineages)
    shared = ProbabilityComputer(events)
    for expr in lineages:
        assert shared.probability(expr) == expected[id(expr)]
