"""Table II: which window sets each TP join keeps, and what it forms from them.

``repro.core.joins.TABLE_II`` is the statement every join reads.  It is
judged here against the paper's rows, spelled once below, and against the
window-level classifier ``compute_windows``: for every kind, the join's
output must be exactly the tuples formed by hand from the window sets the
paper ticks — no window more, no window less.

``group_tuples`` forms each output straight from the sweeps' spans, with its
probability — or, for a group in the NJ base shape, straight from its
overlap records, with no LAWAN sweep.  The window path — ``lawan`` windows,
``window_to_tuple`` per class, then ``with_probabilities()`` — is the
referee it must match tuple for tuple, in order and bit for bit, on the
paper's datasets and on tiled inputs that put either path to work.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial

import pytest

import repro.core.joins as joins
from repro.core import (
    TABLE_II,
    WindowClass,
    compute_windows,
    group_tuples,
    join_output_schema,
    lawan,
    overlap_join,
    swap_theta,
    tp_join,
    tp_left_outer_join,
    tp_right_outer_join,
    window_to_positive_tuple,
    window_to_tuple,
)
from repro.dataflow.convergence import identity_rows
from repro.datasets import arrival_order, meteo_pair, webkit_pair
from repro.lineage import EventSpace, ProbabilityComputer, UnknownEventError, canonical
from repro.relation import EquiJoinCondition, Schema, TPRelation, TPTuple
from repro.stream import StreamSource, continuous_join, merge_tagged
from repro.temporal import Interval
from tests.conftest import make_random_relations

#: The paper's Table II, ✓ by ✓, in ``WindowSet`` field names (plus the inner
#: join, which keeps the overlapping windows alone).
PAPER_ROWS = {
    "anti": {"unmatched_r", "negating_r"},
    "left_outer": {"unmatched_r", "negating_r", "overlapping"},
    "right_outer": {"overlapping", "unmatched_s", "negating_s"},
    "full_outer": {"unmatched_r", "negating_r", "overlapping", "unmatched_s", "negating_s"},
    "inner": {"overlapping"},
}

FIELD_OF = {
    (WindowClass.UNMATCHED, False): "unmatched_r",
    (WindowClass.NEGATING, False): "negating_r",
    (WindowClass.OVERLAPPING, False): "overlapping",
    (WindowClass.UNMATCHED, True): "unmatched_s",
    (WindowClass.NEGATING, True): "negating_s",
}


def test_table_states_the_papers_rows():
    stated = {
        kind: {
            FIELD_OF[window_class, reverse]
            for reverse, kept in enumerate(sides)
            for window_class in kept
        }
        for kind, sides in TABLE_II.items()
    }
    assert stated == PAPER_ROWS


def formed_by_hand(kind, left, right, theta):
    """The join's tuples, from exactly the window sets the paper ticks."""
    windows = compute_windows(left, right, theta, include_reverse=True)
    widths = len(left.schema), len(right.schema)
    tuples = []
    for field in sorted(PAPER_ROWS[kind]):
        for window in getattr(windows, field):
            if kind == "anti":
                tuples.append(window_to_positive_tuple(window))
            else:
                tuples.append(
                    window_to_tuple(window, *widths, left_is_positive=field[-1] != "s")
                )
    return tuples


@pytest.mark.parametrize("kind", sorted(PAPER_ROWS))
class TestJoinsKeepExactlyTheirWindowSets:
    def test_on_the_paper_example(self, kind, wants_to_visit, hotel_availability, loc_theta):
        joined = tp_join(kind, wants_to_visit, hotel_availability, loc_theta)
        by_hand = formed_by_hand(kind, wants_to_visit, hotel_availability, loc_theta)
        assert identity_rows(joined, False) == identity_rows(by_hand, False)

    @pytest.mark.parametrize("seed", range(4))
    def test_on_random_relations(self, kind, seed):
        left, right, theta = make_random_relations(seed + 20)
        joined = tp_join(kind, left, right, theta, compute_probabilities=False)
        by_hand = formed_by_hand(kind, left, right, theta)
        assert by_hand
        assert identity_rows(joined, False) == identity_rows(by_hand, False)


class TestOperatorsUseExactlyTheirWindowSets:
    def test_overlapping_windows_are_shared_between_directions(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        """WO(r;s,θ) = WO(s;r,θ): the overlapping part of left and right outer
        joins carries the same (pair, interval, lineage) content."""
        left = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        right = tp_right_outer_join(wants_to_visit, hotel_availability, loc_theta)

        def overlapping_rows(relation):
            return {
                (t.fact, t.interval, str(canonical(t.lineage)))
                for t in relation
                if all(value is not None for value in t.fact)
            }

        assert overlapping_rows(left) == overlapping_rows(right)

    def test_window_counts_helper(self, wants_to_visit, hotel_availability, loc_theta):
        windows = compute_windows(
            wants_to_visit, hotel_availability, loc_theta, include_reverse=True
        )
        counts = windows.counts()
        assert counts["overlapping"] == len(windows.overlapping)
        assert counts["negating_s"] == len(windows.negating_s)


class TestPipelining:
    """``group_tuples`` is the pipelined form: driven by its consumer, it
    holds nothing beyond the group being swept."""

    @pytest.fixture()
    def fed(self, wants_to_visit, hotel_availability, loc_theta):
        groups = overlap_join(wants_to_visit, hotel_availability, loc_theta)
        pulled = []

        def feed():
            for group in groups:
                pulled.append(group)
                yield group

        return groups, pulled, feed()

    def test_the_first_tuple_pulls_only_the_first_group(self, fed):
        groups, pulled, feed = fed
        stream = group_tuples("left_outer", feed, 2, 2)
        assert not pulled  # nothing happens before somebody asks
        first = next(stream)
        assert first.fact[0] == "Ann"
        assert pulled == groups[:1] and len(groups) > 1

    def test_the_rest_follows_group_by_group(
        self, fed, wants_to_visit, hotel_availability, loc_theta
    ):
        groups, pulled, feed = fed
        stream = group_tuples("left_outer", feed, 2, 2)
        first = next(stream)
        rest = list(stream)
        assert pulled == groups
        joined = tp_left_outer_join(
            wants_to_visit, hotel_availability, loc_theta, compute_probabilities=False
        )
        assert [first, *rest] == list(joined)


# --------------------------------------------------------------------------- #
# tuples formed from spans against the window path, bit for bit
# --------------------------------------------------------------------------- #
def tiled_pair(
    size: int,
    seed: int = 0,
    gaps: bool = True,
    overlapping: bool = False,
    certain: bool = False,
    own_event: bool = False,
) -> tuple[TPRelation, TPRelation]:
    """``r`` tuples over five keys against ``s`` tuples that tile each key's
    timeline: back to back, or with ``gaps`` of up to two points between
    them, or ``overlapping`` their predecessor by up to two points.

    ``certain`` gives every third tuple of each side the int marginal ``1``;
    ``own_event`` gives every tenth ``s`` tuple the event (and marginal) of
    an ``r`` tuple it meets.
    """
    rng = random.Random(seed)
    schema = Schema.of("Key", "Name")
    left_rows = []
    for index in range(size):
        start = rng.randrange(0, 60)
        end = start + rng.randrange(5, 30)
        marginal = 1 if certain and index % 3 == 0 else round(rng.uniform(0.05, 0.95), 3)
        left_rows.append((f"k{index % 5}", f"r{index}", f"r{index}", start, end, marginal))
    right_rows = []
    for key in range(5):
        time = rng.randrange(0, 4)
        while time < 100:
            length = rng.randrange(1, 6)
            index = len(right_rows)
            event = f"s{index}"
            marginal = 1 if certain and index % 3 == 0 else round(rng.uniform(0.05, 0.95), 3)
            if own_event and index % 10 == 0:
                met = [row for row in left_rows[key::5] if row[3] < time + length and time < row[4]]
                if met:
                    event, marginal = met[0][2], met[0][5]
            right_rows.append((f"k{key}", f"s{index}", event, time, time + length, marginal))
            time += length
            if overlapping:
                time -= min(rng.randrange(0, 3), length - 1)
            elif gaps:
                time += rng.randrange(0, 3)

    def relation(rows, name):
        # ``from_rows`` would register ``float(1)``; keep the int.
        space = EventSpace({row[2]: row[5] for row in rows})
        tuples = [
            TPTuple.base(row[:2], row[2], Interval(row[3], row[4]), row[5]) for row in rows
        ]
        return TPRelation(schema, tuples, space, name=name)

    return relation(left_rows, "tiled_r"), relation(right_rows, "tiled_s")


DATASETS = {
    "meteo": (meteo_pair, "Metric"),
    "webkit": (webkit_pair, "File"),
    "abutting": (partial(tiled_pair, gaps=False), "Key"),
    "gapped": (tiled_pair, "Key"),
    "certain": (partial(tiled_pair, certain=True), "Key"),
    "own_event": (partial(tiled_pair, own_event=True), "Key"),
    "overlapping": (partial(tiled_pair, overlapping=True), "Key"),
}

#: The tiled inputs whose every group is in the NJ base shape.
BASE_SHAPED = {"abutting", "gapped", "certain"}


@lru_cache(maxsize=None)
def nj_inputs(dataset: str, seed: int):
    """A small pair of the dataset, its merged event space and the equi-θ."""
    make, key = DATASETS[dataset]
    left, right = make(150, seed=seed)
    theta = EquiJoinCondition(left.schema, right.schema, ((key, key),))
    return left, right, theta, left.events.merge(right.events)


def probability_bits(probability) -> tuple | None:
    """A probability's type and bits: an int ``1`` is not a float ``1.0``."""
    if probability is None:
        return None
    return type(probability), float.hex(float(probability))


def exact_rows(tuples) -> list[tuple]:
    """Everything a tuple says, the lineage operand for operand, ``p`` by bits."""
    return [(t.fact, t.interval, t.lineage, probability_bits(t.probability)) for t in tuples]


def window_path_tuples(
    kind, left, right, theta, events, sides=(False, True)
) -> list[TPTuple]:
    """The join's tuples without probabilities, the way the window API forms
    them: ``lawan`` windows of both ``sides`` (forward, reverse), kept by
    ``PAPER_ROWS`` and formed one by one by the class's concatenation."""
    merged = TPRelation(left.schema, left.tuples, events, check_constraint=False)
    widths = len(left.schema), len(right.schema)
    tuples = []
    for reverse in sides:
        if reverse:
            groups = overlap_join(right, merged, swap_theta(theta))
        else:
            groups = overlap_join(merged, right, theta)
        for window in lawan(groups):
            if FIELD_OF.get((window.window_class, reverse)) not in PAPER_ROWS[kind]:
                continue
            if kind == "anti":
                tuples.append(window_to_positive_tuple(window))
            else:
                tuples.append(window_to_tuple(window, *widths, left_is_positive=not reverse))
    return tuples


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("kind", sorted(PAPER_ROWS))
class TestSpansAgainstTheWindowPath:
    def test_tp_join_is_the_window_path_then_with_probabilities(self, kind, dataset, seed):
        left, right, theta, events = nj_inputs(dataset, seed)
        joined = tp_join(kind, left, right, theta)
        schema = join_output_schema(kind, left.schema, right.schema, right.name)
        referee = TPRelation(
            schema, window_path_tuples(kind, left, right, theta, events), events,
            check_constraint=False,
        ).with_probabilities()
        assert joined.schema == schema
        assert len(joined) > 0
        assert exact_rows(joined) == exact_rows(referee)

    def test_without_probabilities_the_window_path_tuples(self, kind, dataset, seed):
        left, right, theta, events = nj_inputs(dataset, seed)
        joined = tp_join(kind, left, right, theta, compute_probabilities=False)
        assert len(joined) > 0
        assert exact_rows(joined) == exact_rows(
            window_path_tuples(kind, left, right, theta, events)
        )

    def test_the_computer_is_consulted_as_with_probabilities_did(self, kind, dataset, seed):
        left, right, theta, events = nj_inputs(dataset, seed)
        merged = TPRelation(left.schema, left.tuples, events, check_constraint=False)
        widths = len(left.schema), len(right.schema)
        formed = ProbabilityComputer(events)
        list(group_tuples(kind, overlap_join(merged, right, theta), *widths, computer=formed))
        reverse_groups = overlap_join(right, merged, swap_theta(theta))
        list(group_tuples(kind, reverse_groups, *widths, reverse=True, computer=formed))
        referee = ProbabilityComputer(events)
        for tp_tuple in window_path_tuples(kind, left, right, theta, events):
            referee.probability(tp_tuple.lineage)
        assert formed.factorised > 0
        counters = ("factorised", "cache_hits", "cache_misses")
        assert [getattr(formed, name) for name in counters] == [
            getattr(referee, name) for name in counters
        ]

    def test_continuous_join_settles_to_the_batch_bits(self, kind, dataset, seed):
        left, right, theta, events = nj_inputs(dataset, seed)
        key = DATASETS[dataset][1]
        operator = continuous_join(
            kind, left.schema, right.schema, [(key, key)],
            left_name=left.name, right_name=right.name,
            events=events, materialize_probabilities=True,
        )
        streams = [
            StreamSource(arrival_order(relation, 4, seed=seed + side), lateness=4,
                         watermark_every=3)
            for side, relation in enumerate((left, right))
        ]
        outputs = list(operator.run(merge_tagged(*streams, seed=seed)))
        batch = tp_join(kind, left, right, theta)
        assert operator.maintainer.stats.late_positives_dropped == 0
        assert exact_rows(sorted(outputs, key=TPTuple.key)) == exact_rows(
            sorted(batch, key=TPTuple.key)
        )


# --------------------------------------------------------------------------- #
# which groups skip the LAWAN sweep
# --------------------------------------------------------------------------- #
@pytest.fixture()
def swept(monkeypatch):
    """The ``r`` of every group ``group_tuples`` sends through the LAWAN sweep."""
    entered = []
    sweep = joins.negating_sweep

    def counting(group):
        entered.append(group.r)
        return sweep(group)

    monkeypatch.setattr(joins, "negating_sweep", counting)
    return entered


def test_a_base_shaped_join_never_enters_the_lawan_sweep(swept):
    left, right = webkit_pair(200)
    theta = EquiJoinCondition(left.schema, right.schema, (("File", "File"),))
    joined = tp_left_outer_join(left, right, theta)
    assert any("¬" in str(t.lineage) for t in joined)
    assert swept == []


def test_overlapping_negatives_still_take_the_sweep(
    swept, wants_to_visit, hotel_availability, loc_theta
):
    """Ann's ``b2`` [5, 8) and ``b3`` [4, 6) overlap on [5, 6)."""
    tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
    assert [r.fact[0] for r in swept] == ["Ann"]


@pytest.mark.parametrize("dataset", sorted(set(DATASETS) - {"meteo", "webkit"}))
def test_tiled_inputs_take_the_path_their_shape_asks_for(swept, dataset):
    left, right, theta, events = nj_inputs(dataset, 0)
    assert compute_windows(left, right, theta).negating_r
    tp_join("left_outer", left, right, theta)
    assert bool(swept) is (dataset not in BASE_SHAPED)


# --------------------------------------------------------------------------- #
# an event the computer does not know
# --------------------------------------------------------------------------- #
def first_failure(probabilities) -> tuple:
    """How far ``probabilities`` gets: the values before it raised, and the
    ``UnknownEventError`` it raised."""
    formed = []
    with pytest.raises(UnknownEventError) as failure:
        for value in probabilities:
            formed.append(probability_bits(value))
    return formed, failure.value.args


@pytest.mark.parametrize("missing", ["positive", "negative", "both"])
@pytest.mark.parametrize(
    ("kind", "reverse"),
    [
        (kind, reverse)
        for kind, sides in sorted(TABLE_II.items())
        for reverse in (0, 1)
        if sides[reverse]
    ],
)
def test_a_missing_marginal_raises_as_the_general_path_does(kind, reverse, missing):
    """The first output that needs the event raises, naming the event the
    general path names: of two missing ones, the first in sorted order —
    which, for a reverse group, is its negative (``r…`` before ``s…``)."""
    left, right, theta, events = nj_inputs("gapped", 0)
    merged = TPRelation(left.schema, left.tuples, events, check_constraint=False)
    sides = [
        lambda: overlap_join(merged, right, theta),
        lambda: overlap_join(right, merged, swap_theta(theta)),
    ]
    # A group whose first output needs its first negative's event.
    group = next(g for g in sides[reverse]() if g.matches and g.matches[0].start == g.r.start)
    names = {
        "positive": {group.r.lineage.name},
        "negative": {group.matches[0].s.lineage.name},
        "both": {group.r.lineage.name, group.matches[0].s.lineage.name},
    }[missing]
    partial_space = EventSpace(
        {name: p for name, p in events.as_dict().items() if name not in names}
    )
    widths = len(left.schema), len(right.schema)
    formed = ProbabilityComputer(partial_space)
    outputs = group_tuples(kind, sides[reverse](), *widths, reverse=bool(reverse), computer=formed)
    referee = ProbabilityComputer(partial_space)
    windows = window_path_tuples(kind, left, right, theta, events, sides=(bool(reverse),))
    expected = first_failure(referee.probability(t.lineage) for t in windows)
    assert first_failure(t.probability for t in outputs) == expected
    assert expected[1][0] in names
    counters = ("factorised", "cache_hits", "cache_misses")
    assert [getattr(formed, name) for name in counters] == [
        getattr(referee, name) for name in counters
    ]
