"""Table II: which window sets each TP join keeps, and what it forms from them.

``repro.core.joins.TABLE_II`` is the statement every join reads.  It is
judged here against the paper's rows, spelled once below, and against the
window-level classifier ``compute_windows``: for every kind, the join's
output must be exactly the tuples formed by hand from the window sets the
paper ticks — no window more, no window less.

``group_tuples`` forms each output straight from the sweeps' spans, with its
probability.  The window path — ``lawan`` windows, ``window_to_tuple`` per
class, then ``with_probabilities()`` — is the referee it must match tuple
for tuple, in order and bit for bit, on the paper's datasets.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

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
from repro.lineage import ProbabilityComputer, canonical
from repro.relation import EquiJoinCondition, TPRelation, TPTuple
from repro.stream import StreamSource, continuous_join, merge_tagged
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
DATASETS = {"meteo": (meteo_pair, "Metric"), "webkit": (webkit_pair, "File")}


@lru_cache(maxsize=None)
def nj_inputs(dataset: str, seed: int):
    """A small pair of the dataset, its merged event space and the equi-θ."""
    make, key = DATASETS[dataset]
    left, right = make(150, seed=seed)
    theta = EquiJoinCondition(left.schema, right.schema, ((key, key),))
    return left, right, theta, left.events.merge(right.events)


def exact_rows(tuples) -> list[tuple]:
    """Everything a tuple says, the lineage operand for operand, ``p`` by repr."""
    return [(t.fact, t.interval, t.lineage, repr(t.probability)) for t in tuples]


def window_path_tuples(kind, left, right, theta, events) -> list[TPTuple]:
    """The join's tuples without probabilities, the way the window API forms
    them: ``lawan`` windows of both sides, kept by ``PAPER_ROWS`` and formed
    one by one by the class's concatenation."""
    merged = TPRelation(left.schema, left.tuples, events, check_constraint=False)
    widths = len(left.schema), len(right.schema)
    sides = (
        (False, overlap_join(merged, right, theta)),
        (True, overlap_join(right, merged, swap_theta(theta))),
    )
    tuples = []
    for reverse, groups in sides:
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
