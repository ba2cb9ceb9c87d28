"""Tests for the overlapping-window computation (conventional outer join step)."""

from __future__ import annotations

import random

import pytest

from repro import Schema, TPRelation, equi_join_on
from repro.core import WindowClass, iter_overlap_join, lawau, overlap_join, overlapping_windows
from repro.core.lawau import gap_sweep
from repro.core.overlap import OverlapRecord, sort_matches
from repro.relation import PredicateCondition, TPTuple, TrueCondition
from repro.temporal import Interval
from tests.conftest import make_random_relations
from tests.dataflow.reference_publisher import _match_order


class TestPaperExample:
    def test_groups_follow_positive_relation_order(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        assert [group.r.fact for group in groups] == [("Ann", "ZAK"), ("Jim", "WEN")]

    def test_matches_are_sorted_by_overlap_start(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        ann = groups[0]
        assert [record.interval for record in ann.matches] == [Interval(4, 6), Interval(5, 8)]

    def test_fully_unmatched_tuple_has_no_matches_but_one_padded_record(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        jim = groups[1]
        assert not jim.matches
        padded = list(gap_sweep(jim))
        assert padded == [(WindowClass.UNMATCHED, 7, 10, None, None)]

    def test_record_to_window_classes(self, wants_to_visit, hotel_availability, loc_theta):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        ann_window = overlapping_windows(wants_to_visit, hotel_availability, loc_theta)[0]
        assert ann_window.window_class is WindowClass.OVERLAPPING
        assert ann_window.interval == groups[0].matches[0].interval
        assert ann_window.source_interval == Interval(2, 8)
        (jim_window,) = lawau(groups[1:])
        assert jim_window.window_class is WindowClass.UNMATCHED
        assert jim_window.source_interval == jim_window.interval == Interval(7, 10)

    def test_overlapping_windows_helper(self, wants_to_visit, hotel_availability, loc_theta):
        windows = overlapping_windows(wants_to_visit, hotel_availability, loc_theta)
        assert {(w.fact_s, w.interval) for w in windows} == {
            (("hotel1", "ZAK"), Interval(4, 6)),
            (("hotel2", "ZAK"), Interval(5, 8)),
        }


class TestPairingStrategies:
    def test_equi_and_nested_loop_produce_identical_windows(self):
        positive, negative, equi_theta = make_random_relations(17)
        general_theta = PredicateCondition(
            lambda left, right: left[0] == right[0], label="same key"
        )
        from_hash = {
            (w.fact_r, w.fact_s, w.interval)
            for w in overlapping_windows(positive, negative, equi_theta)
        }
        from_loop = {
            (w.fact_r, w.fact_s, w.interval)
            for w in overlapping_windows(positive, negative, general_theta)
        }
        assert from_hash == from_loop

    def test_general_theta_with_a_non_equality_conjunct(self):
        """A general θ is one partition through the same merge: the pairs it
        keeps are the equi-join's pairs that also pass the extra conjunct."""
        positive, negative, equi_theta = make_random_relations(17)
        general_theta = PredicateCondition(
            lambda left, right: left[0] == right[0] and left[1] < right[1],
            label="same key, serial below",
        )
        from_hash = {
            (w.fact_r, w.fact_s, w.interval)
            for w in overlapping_windows(positive, negative, equi_theta)
            if w.fact_r[1] < w.fact_s[1]
        }
        from_loop = {
            (w.fact_r, w.fact_s, w.interval)
            for w in overlapping_windows(positive, negative, general_theta)
        }
        assert from_hash and from_hash == from_loop

    def test_theta_that_never_matches_yields_only_unmatched_groups(self):
        positive, negative, _ = make_random_relations(3)
        never = PredicateCondition(lambda left, right: False, label="never")
        groups = overlap_join(positive, negative, never)
        assert not any(group.matches for group in groups)

    def test_adjacent_intervals_do_not_overlap(self):
        left = TPRelation.from_rows(Schema.of("K"), [("k", "l1", 1, 4, 0.5)])
        right = TPRelation.from_rows(Schema.of("K"), [("k", "r1", 4, 7, 0.5)])
        theta = equi_join_on(left.schema, right.schema, [("K", "K")])
        assert overlapping_windows(left, right, theta) == []

    def test_empty_negative_relation(self, wants_to_visit):
        empty = TPRelation(Schema.of("Hotel", "Loc"), events=wants_to_visit.events)
        theta = equi_join_on(wants_to_visit.schema, empty.schema, [("Loc", "Loc")])
        groups = overlap_join(wants_to_visit, empty, theta)
        assert not any(group.matches for group in groups)

    def test_empty_positive_relation(self, hotel_availability):
        empty = TPRelation(Schema.of("Name", "Loc"), events=hotel_availability.events)
        theta = equi_join_on(empty.schema, hotel_availability.schema, [("Loc", "Loc")])
        assert overlap_join(empty, hotel_availability, theta) == []


# --------------------------------------------------------------------------- #
# the indexed merge against all pairs
# --------------------------------------------------------------------------- #
SCHEMA = Schema.of("Key", "Serial")


def relation(name: str, rows: list[tuple[str, int, int]]) -> TPRelation:
    """``(key, start, end)`` rows; the serial keeps facts (and events) unique."""
    return TPRelation.from_rows(
        SCHEMA,
        [
            (key, f"{name}{index}", f"{name}{index}", start, end, 0.5)
            for index, (key, start, end) in enumerate(rows)
        ],
        name=name,
    )


def hard_relations(seed: int) -> tuple[TPRelation, TPRelation]:
    """Random relations holding the cases the two-column index must get right.

    Key ``long``: one early negative that outlives many short later ones, so
    the overlapping tuples of a late positive are *not* a contiguous run of
    the start order and only the running maximum of ends finds the first.
    Key ``abut``: negatives that end exactly where positives start and start
    exactly where they end.  ``left-only`` / ``right-only``: a key present on
    one side.  ``mixed``: plain random intervals, ties included.
    """
    rng = random.Random(seed)
    left: list[tuple[str, int, int]] = []
    right: list[tuple[str, int, int]] = [("long", 0, 200)]
    for _ in range(25):
        start = rng.randrange(1, 190)
        right.append(("long", start, start + rng.randrange(1, 4)))
        start = rng.randrange(0, 195)
        left.append(("long", start, start + rng.randrange(1, 6)))
    for index in range(10):
        left.append(("abut", 20 * index + 5, 20 * index + 10))
        right.append(("abut", 20 * index, 20 * index + 5))
        right.append(("abut", 20 * index + 10, 20 * index + 15))
    for _ in range(5):
        start = rng.randrange(0, 50)
        left.append(("left-only", start, start + rng.randrange(1, 9)))
        right.append(("right-only", start, start + rng.randrange(1, 9)))
    for _ in range(30):
        start = rng.randrange(0, 40)
        left.append(("mixed", start, start + rng.randrange(1, 9)))
        start = rng.randrange(0, 40)
        right.append(("mixed", start, start + rng.randrange(1, 9)))
    rng.shuffle(left)
    rng.shuffle(right)
    return relation("l", left), relation("r", right)


def all_pairs(positive, negative, theta) -> list[list[tuple]]:
    """Per ``r`` tuple, every θ-matching overlap, found by looking at every pair."""
    expected = []
    for r in positive:
        expected.append(
            sorted(
                (max(r.start, s.start), min(r.end, s.end), s.fact)
                for s in negative
                if r.start < s.end and s.start < r.end and theta.evaluate(r, s)
            )
        )
    return expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "make_theta",
    [
        lambda left, right: equi_join_on(left.schema, right.schema, [("Key", "Key")]),
        lambda left, right: TrueCondition(),
        lambda left, right: PredicateCondition(
            lambda l_fact, r_fact: l_fact[0] == r_fact[0] and l_fact[1] != r_fact[1]
        ),
    ],
    ids=["equi", "true", "general"],
)
def test_overlap_join_finds_exactly_the_pairs_a_brute_force_finds(seed, make_theta):
    positive, negative = hard_relations(seed)
    theta = make_theta(positive, negative)
    groups = overlap_join(positive, negative, theta)
    assert isinstance(groups, list)
    assert [group.r for group in groups] == list(positive)
    found = [
        [(m.interval.start, m.interval.end, m.s.fact) for m in group.matches]
        for group in groups
    ]
    assert found == all_pairs(positive, negative, theta)
    assert any(len(matches) > 2 for matches in found)


def test_iter_overlap_join_pulls_positive_one_tuple_at_a_time():
    """Each group is yielded before the next positive tuple is read."""
    positive, negative = hard_relations(3)
    theta = equi_join_on(positive.schema, negative.schema, [("Key", "Key")])
    pulled = []

    def reading(relation):
        for tp_tuple in relation:
            pulled.append(tp_tuple)
            yield tp_tuple

    groups = iter_overlap_join(reading(positive), negative, theta)
    assert pulled == []
    for count, group in enumerate(groups, start=1):
        assert len(pulled) == count and group.r is pulled[-1]
    assert pulled == list(positive)


def test_a_long_early_negative_is_found_behind_short_later_ones():
    """The shape a plain ``bisect`` on ends would miss: the overlapping tuples
    of ``r`` are the first and the last of the start order, not a run."""
    negative = relation("r", [("k", 0, 100), ("k", 10, 12), ("k", 20, 22), ("k", 50, 60)])
    positive = relation("l", [("k", 55, 58), ("k", 12, 20), ("k", 100, 105)])
    theta = equi_join_on(positive.schema, negative.schema, [("Key", "Key")])
    found = [
        [(m.s.start, m.s.end, m.interval) for m in group.matches]
        for group in overlap_join(positive, negative, theta)
    ]
    assert found == [
        [(0, 100, Interval(55, 58)), (50, 60, Interval(55, 58))],
        [(0, 100, Interval(12, 20))],
        [],
    ]


def test_sort_matches_leaves_what_a_stable_sort_by_the_full_key_leaves():
    """Tie-heavy records: equal ``(start, end)`` with different negatives,
    and equal *full* keys (the same negative tuple twice, as distinct
    objects) whose first-come order a stable sort must keep."""
    rng = random.Random(5)
    r = TPTuple.base(("k", "r"), "r", Interval(0, 10), 0.5)
    records = []
    for serial in range(40):
        start = rng.randrange(0, 3)
        end = start + rng.randrange(1, 3)
        # Four facts over forty records: full-key ties are the rule.
        fact = ("k", f"s{rng.randrange(4)}")
        s = TPTuple.base(fact, "s", Interval(0, 10), 0.5)
        records.append(OverlapRecord(r, s, start, end))
    expected = sorted(records, key=_match_order)
    assert len({_match_order(record) for record in records}) < len(records) / 2
    sort_matches(records)
    assert [id(record) for record in records] == [id(record) for record in expected]
