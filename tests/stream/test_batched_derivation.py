"""One derivation pass per side: the settle step of the continuous joins.

A finalizing watermark hands each operator the completed overlap groups of
many keys at once.  With one probability computer per maintainer they are
derived by a single :func:`repro.core.joins.group_tuples` call per side:
by ``ContinuousJoin._emit``, by ``RevisionJoin``'s early-off settle, and
by an unread node's ``close`` for each run of same-side groups.  That pass
must form exactly the tuples, in exactly the order and with exactly the
probability bits, that deriving the groups one by one forms.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stream.operators as operators
from repro.core import TABLE_II, group_tuples, overlap_join, swap_theta
from repro.dataflow import RevisionJoin
from repro.lineage import And, EventSpace, ProbabilityComputer, Var
from repro.relation import EquiJoinCondition, Schema, TPRelation, TPTuple
from repro.stream import LEFT, RIGHT, StreamEvent, Tagged, Watermark, continuous_join
from repro.temporal import Interval

ON = (("Key", "Key"),)
SCHEMA = Schema.of("Key", "Name")


def bits(tuples) -> list[tuple]:
    """Everything a tuple says, its probability by type and bits."""
    return [
        (
            t.fact,
            t.start,
            t.end,
            t.lineage,
            None if t.probability is None else (type(t.probability), float.hex(t.probability)),
        )
        for t in tuples
    ]


def keyed_pair(seed: int, size: int, derived: bool, overlapping: bool):
    """``r`` and ``s`` over four keys.  ``derived`` gives every ``r`` tuple
    the lineage ``ri ∧ rj`` of two base events shared with other tuples;
    ``overlapping`` lets ``s`` tuples of a key overlap each other, so groups
    leave the NJ base shape."""
    rng = random.Random(seed)
    marginals = {}

    def rows(prefix):
        made = []
        for index in range(size):
            start = rng.randrange(0, 40)
            name = f"{prefix}{index}"
            marginals[name] = round(rng.uniform(0.05, 0.95), 3)
            made.append((f"k{rng.randrange(4)}", name, start, start + rng.randrange(2, 12)))
        return made

    left_rows, right_rows = rows("r"), rows("s")
    if not overlapping:
        # Each key's s tuples back to back: the groups stay base-shaped.
        clock = {}
        for index, (key, name, start, end) in enumerate(right_rows):
            begin = clock.get(key, rng.randrange(0, 3))
            clock[key] = begin + (end - start) + rng.randrange(0, 2)
            right_rows[index] = (key, name, begin, begin + (end - start))
    events = EventSpace(marginals)

    def relation(made, name, lineage_of):
        tuples = [
            TPTuple((key, tag), lineage_of(index, tag), Interval(start, end), None)
            for index, (key, tag, start, end) in enumerate(made)
        ]
        return TPRelation(SCHEMA, tuples, events, name=name, check_constraint=False)

    def left_lineage(index, tag):
        if not derived:
            return Var(tag)
        return And((Var(tag), Var(f"r{(index + 1 + index % 3) % size}")))

    left = relation(left_rows, "r", left_lineage)
    right = relation(right_rows, "s", lambda _index, tag: Var(tag))
    return left, right, events


@given(
    kind=st.sampled_from(sorted(TABLE_II)),
    reverse=st.booleans(),
    derived=st.booleans(),
    overlapping=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_one_pass_equals_group_by_group_in_order_and_bits(
    kind, reverse, derived, overlapping, seed, order
):
    left, right, events = keyed_pair(seed, 14, derived, overlapping)
    theta = EquiJoinCondition(left.schema, right.schema, ON)
    if reverse:
        groups = list(overlap_join(right, left, swap_theta(theta)))
    else:
        groups = list(overlap_join(left, right, theta))
    # A watermark finalizes the groups of many keys, in key order.
    order.shuffle(groups)
    widths = len(left.schema), len(right.schema)
    batched = list(
        group_tuples(
            kind, groups, *widths, reverse=reverse, computer=ProbabilityComputer(events)
        )
    )
    one_by_one = [
        tp_tuple
        for group in groups
        for tp_tuple in group_tuples(
            kind, (group,), *widths, reverse=reverse, computer=ProbabilityComputer(events)
        )
    ]
    assert bits(batched) == bits(one_by_one)


# --------------------------------------------------------------------------- #
# one group_tuples call per side per finalizing watermark
# --------------------------------------------------------------------------- #
def many_keys() -> tuple[TPRelation, TPRelation]:
    """Six keys, each with two ``r`` and two ``s`` tuples ending by 20 and
    two of each ending after 30."""
    left_rows, right_rows = [], []
    for key in range(6):
        for index, (start, end) in enumerate([(0, 10), (5, 20), (25, 35), (30, 45)]):
            left_rows.append((f"k{key}", f"r{key}_{index}", f"r{key}_{index}", start, end, 0.5))
            right_rows.append(
                (f"k{key}", f"s{key}_{index}", f"s{key}_{index}", start + 2, end - 1, 0.25)
            )
    return (
        TPRelation.from_rows(SCHEMA, left_rows, name="r"),
        TPRelation.from_rows(SCHEMA, right_rows, name="s"),
    )


@pytest.fixture()
def derivations(monkeypatch):
    """Every ``group_tuples`` call the continuous operators make, as
    ``(reverse, keys of its groups)``."""
    calls = []
    real = operators.group_tuples

    def counting(kind, groups, *args, **kwargs):
        groups = list(groups)
        calls.append((kwargs.get("reverse", False), [group.r.fact[0] for group in groups]))
        return real(kind, groups, *args, **kwargs)

    monkeypatch.setattr(operators, "group_tuples", counting)
    return calls


def feed_all(join, left, right) -> None:
    for positive, negative in zip(left.tuples, right.tuples):
        join.process(Tagged(LEFT, StreamEvent(positive)))
        join.process(Tagged(RIGHT, StreamEvent(negative)))


def build(kind, left, right, operator):
    events = left.events.merge(right.events)
    if operator == "continuous":
        make = continuous_join
        options = {}
    else:
        make = RevisionJoin
        options = {"early_emit": False}
    return make(
        kind, left.schema, right.schema, ON,
        events=events, materialize_probabilities=True, **options,
    )


@pytest.mark.parametrize("operator", ["continuous", "revision"])
@pytest.mark.parametrize("kind", sorted(TABLE_II))
def test_a_finalizing_watermark_derives_each_side_in_one_call(derivations, kind, operator):
    left, right = many_keys()
    join = build(kind, left, right, operator)
    feed_all(join, left, right)
    assert derivations == []
    join.process(Tagged(LEFT, Watermark(22)))
    assert derivations == []  # the combined watermark has not moved
    join.process(Tagged(RIGHT, Watermark(22)))
    sides = [False, True] if TABLE_II[kind][1] else [False]
    keys = [f"k{key}" for key in range(6) for _ in range(2)]
    assert derivations == [(reverse, keys) for reverse in sides]
    derivations.clear()
    join.close()
    assert derivations == [(reverse, keys) for reverse in sides]


def test_an_unread_node_derives_each_run_of_same_side_groups_in_one_call(derivations):
    left, right = many_keys()
    join = RevisionJoin(
        "full_outer", left.schema, right.schema, ON,
        events=left.events.merge(right.events), materialize_probabilities=True,
        early_emit=True, read=False,
    )
    feed_all(join, left, right)
    join.end_batch()
    join.process(Tagged(LEFT, Watermark(22)))
    join.process(Tagged(RIGHT, Watermark(22)))
    assert derivations == []  # an unread node derives nothing before it closes
    settled = join.close()
    keys = [f"k{key}" for key in range(6) for _ in range(2)]
    # Settle order: the first watermark's forward run, then its reverse
    # run, then close's forward and reverse runs.
    assert derivations == [(False, keys), (True, keys), (False, keys), (True, keys)]
    read = RevisionJoin(
        "full_outer", left.schema, right.schema, ON,
        events=left.events.merge(right.events), materialize_probabilities=True,
    )
    feed_all(read, left, right)
    expected = read.process(Tagged(LEFT, Watermark(22)))
    expected += read.process(Tagged(RIGHT, Watermark(22))) + read.close()
    assert bits(r.tuple for r in settled if hasattr(r, "tuple")) == bits(
        r.tuple for r in expected if hasattr(r, "tuple")
    )
