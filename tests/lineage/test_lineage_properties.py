"""Property-based tests for lineage expressions and probability computation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    TRUE,
    And,
    EventSpace,
    Not,
    Or,
    ProbabilityComputer,
    UnknownEventError,
    Var,
    and_not,
    canonical,
    equivalent,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
    restrict,
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
def test_canonical_preserves_semantics(expr):
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


def near_misses():
    """One step off each NJ shape, built with the raw constructors so that
    nothing is folded away before the computer sees it."""
    r, r2, s1, s2 = (Var(name) for name in VARIABLE_NAMES[:4])
    return st.sampled_from(
        [
            And((r, r)),
            And((r, Not(r))),
            And((r, Not(Or((r, s1))))),  # λr among the negatives
            And((r, Not(Or((s1, s1))))),  # a repeated negative
            And((r, Not(Or((s1, s2, s1))))),
            And((And((r, r2)), Not(Or((s1, s2))))),  # a derived λr
            And((And((r, r2)), s1)),
            And((r, s1, s2)),  # a third conjunct
            And((Not(s1), r)),  # the negation first
            And((r, Not(And((s1, s2))))),
            And((r, Not(Not(s1)))),
            And((r, Not(TRUE))),
            And((r, Not(Or((s1, TRUE))))),
            Not(TRUE),
            Not(r),
            Or((r, s1)),
        ]
    )


@given(join_lineages(), st.integers(min_value=0, max_value=50))
@settings(max_examples=150)
def test_factorised_nj_shapes_equal_the_general_path_bitwise(expr, seed):
    """Same float operations in the same order: ``==`` on floats, no tolerance."""
    events = event_space_for(seed)
    computer = ProbabilityComputer(events)
    assert computer.probability(expr) == ProbabilityComputer(events)._probability(expr)
    assert (computer.factorised, computer.cache_misses) == (1, 0)


@given(near_misses(), st.integers(min_value=0, max_value=50))
@settings(max_examples=150)
def test_near_misses_of_the_nj_shapes_take_the_general_path(expr, seed):
    events = event_space_for(seed)
    computer = ProbabilityComputer(events)
    assert computer.probability(expr) == ProbabilityComputer(events)._probability(expr)
    assert computer.factorised == 0
    assert abs(computer.probability(expr) - brute_force_probability(expr, events)) < 1e-9


def test_negating_product_keeps_the_general_paths_order():
    """``p(r)·∏(1−p(si))`` is the same number on paper and another float:
    the factorised answer must be the general path's
    ``p(r)·(1−(1−∏(1−p(si))))``."""
    events = EventSpace({"r": 0.13, "s1": 0.85, "s2": 0.76})
    expr = and_not(Var("r"), lineage_or(Var("s1"), Var("s2")))
    computer = ProbabilityComputer(events)
    assert computer.probability(expr) == 0.0046800000000000045
    assert computer.factorised == 1
    assert computer._probability(expr) == 0.0046800000000000045
    assert 0.13 * ((1.0 - 0.85) * (1.0 - 0.76)) == 0.004680000000000001


def test_certain_base_tuples_still_answer_a_float():
    """Int marginals (a relation loaded with ``p = 1``): the general product
    starts from ``1.0``, so ``λr ∧ λs`` is ``1.0`` there, not ``1``."""
    events = EventSpace({"r": 1, "s": 1})
    for expr in (Var("r"), lineage_and(Var("r"), Var("s")), and_not(Var("r"), Var("s"))):
        fast = ProbabilityComputer(events).probability(expr)
        general = ProbabilityComputer(events)._probability(expr)
        assert (type(fast), fast) == (type(general), general)


Z, M, A = Var("z"), Var("m"), Var("a")


@pytest.mark.parametrize(
    ("expr", "known", "named"),
    [
        (Z, (), "z"),
        (lineage_and(Z, M), (), "m"),
        (and_not(Z, M), (), "m"),
        (and_not(Z, M), ("z",), "m"),
        (and_not(Z, lineage_or(M, A)), (), "a"),
        (and_not(Z, lineage_or(M, A)), ("z",), "a"),
        (and_not(Z, lineage_or(M, A)), ("z", "a"), "m"),
    ],
)
def test_unknown_event_is_named_as_the_general_path_names_it(expr, known, named):
    """A missing marginal falls through to validation, which names the first
    missing variable in sorted order — here never the first the product
    meets (``z``, then the disjunction left to right)."""
    events = EventSpace({name: 0.5 for name in known})
    with pytest.raises(UnknownEventError) as general:
        events.validate_lineage(expr)
    computer = ProbabilityComputer(events)
    with pytest.raises(UnknownEventError) as factorised:
        computer.probability(expr)
    assert factorised.value.args == general.value.args == (named,)
    assert computer.factorised == 0
