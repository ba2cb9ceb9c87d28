"""Delta publication against the derive-and-diff referee, batch by batch.

:class:`~repro.dataflow.operators.RevisionJoin` publishes deltas: settle
moves what is already published, identities are structural, the derived
watermark comes from a heap.  The publisher it replaced — derive every
window of the group, key by the rendered ``key()``, diff two dicts, derive
once more at settle — lives on in ``reference_publisher.py``.  Here both are
driven over the same tagged inputs and batch boundaries and must say the
same thing after every element and every batch end: the same revisions
(kind, tuple with its lineage operand for operand and its probability
bitwise, ``provisional``), retractions before additions, the covering
watermark last, the same counters, and at the end the same net output.

The pins at the bottom fail on the old publisher: a finalizing watermark
derives nothing in early mode, and no element renders a lineage to text.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from itertools import count
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionOptions, Schema, TPRelation
from repro.dataflow import DataflowQuery, NodeSpec, Revision, RevisionJoin, RevisionKind
from repro.dataflow.executor import merge_edges, source_edges
from repro.core.joins import BATCH_JOINS
from repro.relation import TPTuple, theta_or_true
from repro.stream import JOIN_KINDS, LEFT, RIGHT, Tagged, Watermark

from tests.dataflow.conftest import make_stream_catalog
from tests.dataflow.reference_publisher import ReferenceRevisionJoin

#: Where ``group_tuples`` looks up the one negating sweep it runs per group.
joins_module = importlib.import_module("repro.core.joins")

ON = (("Key", "Key"),)
KINDS = sorted(JOIN_KINDS)


# --------------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------------- #
def row(tp_tuple: TPTuple) -> tuple:
    """A tuple as the referee compares it: structure, and the float's bits."""
    probability = tp_tuple.probability
    return (
        tp_tuple.fact,
        tp_tuple.interval,
        tp_tuple.lineage,  # frozen dataclasses: operand order takes part
        None if probability is None else probability.hex(),
    )


def flatten(runs) -> List:
    """The revisions of :meth:`RevisionJoin.end_batch`'s runs, in order."""
    return [element for _trace, run in runs for element in run]


def revisions(elements: Sequence) -> List[tuple]:
    return [
        (element.kind, row(element.tuple), element.provisional)
        for element in elements
        if isinstance(element, Revision)
    ]


def assert_same_output(got: List, want: List, net: set, context: str) -> None:
    """Same revisions in the same order, applying cleanly, watermark last.

    The order is part of the contract: a downstream node republishes once
    per batch, so its retract/refine counts depend on the order in which
    this node's revisions reach it.  ``net`` is the consumer's view: a group
    retracts its stale windows before it adds the corrected ones, so every
    retraction finds its tuple and every addition finds its place free.
    """
    assert Counter(revisions(got)) == Counter(revisions(want)), context
    assert revisions(got) == revisions(want), f"order differs at {context}"
    marks = [e for e in got if isinstance(e, Watermark)]
    assert marks == [e for e in want if isinstance(e, Watermark)], context
    assert len(marks) <= 1 and (not marks or got[-1] is marks[0]), context
    for kind, identity, _provisional in revisions(got):
        if kind is RevisionKind.RETRACT:
            assert identity in net, f"retracts what is not published: {context}"
            net.discard(identity)
        else:
            assert identity not in net, f"adds what is already published: {context}"
            net.add(identity)


class Pair:
    """The delta publisher and the referee of one node, fed in lockstep."""

    def __init__(self, kind, left_schema, right_schema, **options) -> None:
        # Counting clocks: emit latencies become comparable exactly.
        self.new = RevisionJoin(
            kind, left_schema, right_schema, ON, clock=count().__next__, **options
        )
        self.old = ReferenceRevisionJoin(
            kind, left_schema, right_schema, ON, clock=count().__next__, **options
        )
        self.step = 0
        #: The consumer's view: what the delta publisher's revisions add up to.
        self.net: set = set()

    def _compare(self, got: List, want: List, what: str) -> List:
        self.step += 1
        context = f"step {self.step}: {what}"
        assert_same_output(got, want, self.net, context)
        assert self.new.stats == self.old.stats, context
        assert self.new.derived_watermark() == self.old.derived_watermark(), context
        return got

    def feed(self, tagged: Tagged) -> List:
        """One element inside a batch: what ``process`` returns."""
        return self._compare(
            self.new.process(tagged), self.old.process(tagged), repr(tagged)
        )

    def end_batch(self) -> List:
        """The batch boundary: both publish their dirty groups."""
        return self._compare(
            flatten(self.new.end_batch()), flatten(self.old.end_batch()), "batch end"
        )

    def process(self, tagged: Tagged) -> List:
        """One element as a batch of one, as the inline transport runs it."""
        return self.feed(tagged) + self.end_batch()

    def close(self) -> List:
        got = self._compare(self.new.close(), self.old.close(), "close")
        assert Counter(map(row, self.new.settled_outputs.values())) == Counter(
            map(row, self.old.settled_outputs.values())
        )
        assert set(map(row, self.new.settled_outputs.values())) == self.net
        assert len(self.new.settled_outputs) == len(self.old.settled_outputs)
        assert self.new.emit_latencies == self.old.emit_latencies
        assert self.new.emit_event_lags == self.old.emit_event_lags
        for mine, theirs in (
            (self.new.maintainer, self.old.maintainer),
            (self.new.reverse_maintainer, self.old.reverse_maintainer),
        ):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.stats == theirs.stats
        return got


def drive_chain(catalog, tree, merge_seed, batch=1, **options) -> List[Pair]:
    """Feed a join tree depth-first, every node ending a batch after each
    ``batch`` source elements.

    Each node is a :class:`Pair`; what flows downstream is the delta
    publisher's output, so both operators of a node always see the same
    inputs and batch boundaries, and any divergence is pinned to the
    element or batch end that caused it.
    """
    graph = DataflowQuery(catalog, tree, ExecutionOptions()).graph
    index_of = {name: index for index, name in enumerate(graph.node_names)}
    if options.get("materialize_probabilities"):
        options["events"] = graph.merged_events()
    pairs = [
        Pair(spec.kind, graph.schema_of(spec.left), graph.schema_of(spec.right),
             left_name=spec.left, right_name=spec.right, **options)
        for spec in tree
    ]
    consumers = {
        index_of[spec.name]: [
            (index_of[other.name], side)
            for other in tree
            for side, source in ((LEFT, other.left), (RIGHT, other.right))
            if source == spec.name
        ]
        for spec in tree
    }

    def deliver(producer: int, emitted: List) -> None:
        for element in emitted:
            for consumer, side in consumers[producer]:
                deliver(consumer, pairs[consumer].feed(Tagged(side, element)))

    def end_batches() -> None:
        # Index order is topological: a node's batch-end revisions reach its
        # consumers before they end theirs.
        for index, pair in enumerate(pairs):
            deliver(index, pair.end_batch())

    for position, (_slot, target, side, element) in enumerate(
        merge_edges(source_edges(graph, index_of), merge_seed), start=1
    ):
        deliver(target, pairs[target].feed(Tagged(side, element)))
        if position % batch == 0:
            end_batches()
    end_batches()
    for index, pair in enumerate(pairs):
        deliver(index, pair.close())
    return pairs


# --------------------------------------------------------------------------- #
# the property
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    first=st.sampled_from(KINDS),
    second=st.sampled_from(KINDS),
    derived_is_left=st.booleans(),
    early=st.booleans(),
    materialize=st.booleans(),
    disorder=st.integers(min_value=0, max_value=12),
    watermark_every=st.integers(min_value=1, max_value=6),
    merge_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    batch=st.sampled_from([1, 3, 16]),
)
def test_delta_publisher_says_what_the_referee_says(
    seed, first, second, derived_is_left, early, materialize, disorder,
    watermark_every, merge_seed, batch,
):
    # A small time span over few keys: abutting and tied overlaps are common.
    catalog, *_ = make_stream_catalog(
        seed, sizes=(14, 14, 12), disorder=disorder, num_keys=2, time_span=16,
        watermark_every=watermark_every,
    )
    # The derived stream feeds the second node on either side, so input
    # retractions reach remove_positive and remove_negative alike.
    left, right = ("n1", "c") if derived_is_left else ("c", "n1")
    tree = [NodeSpec("n1", first, "a", "b", ON), NodeSpec("n2", second, left, right, ON)]
    pairs = drive_chain(
        catalog, tree, merge_seed, batch,
        early_emit=early, materialize_probabilities=materialize,
    )
    assert pairs[1].new.stats.inputs_retracted == pairs[0].new.stats.retracts


# --------------------------------------------------------------------------- #
# explicit shapes
# --------------------------------------------------------------------------- #
SCHEMA = Schema.of("Key", "Serial")


def relation(prefix: str, spans, probabilities=None) -> TPRelation:
    rows = [
        ("k", f"{prefix}{index}", f"{prefix}{index}", start, end,
         probabilities[index] if probabilities else 0.5)
        for index, (start, end) in enumerate(spans)
    ]
    return TPRelation.from_rows(SCHEMA, rows, name=prefix)


def emit(side, tp_tuple):
    return Tagged(side, Revision(RevisionKind.EMIT, tp_tuple))


def retract(side, tp_tuple):
    return Tagged(side, Revision(RevisionKind.RETRACT, tp_tuple))


def kinds_of(elements):
    return [e.kind for e in elements if isinstance(e, Revision)]


def step(join, tagged):
    """One element as a batch of one, as the inline transport runs it."""
    return join.process(tagged) + flatten(join.end_batch())


@pytest.mark.parametrize("kind", ["left_outer", "anti", "full_outer"])
@pytest.mark.parametrize("late", range(3, 8))
def test_abutting_matches_keep_the_sweeps_heap_order(kind, late):
    """Matches ``[23,25) [24,25) [24,25)`` then five at ``[25,26)``.

    LAWAN admits the windows starting at 25 before it retires the ones
    ending there, so the heap order — hence the ``Or`` operand order, hence
    the last bit of the probability — of the ``[25,26)`` window depends on
    the matches *before* the boundary.  This is the shape on which a
    publisher that resumed its sweeps at an abutting boundary (PR 17's
    part 5, measured and left out) got 0.3663638747999998 for
    0.36636387480000004; whoever slices the sweep next has to pass it.
    """
    spans = [(23, 25), (24, 25), (24, 25)] + [(25, 26)] * 5
    probabilities = [0.31, 0.17, 0.23, 0.11, 0.29, 0.13, 0.19, 0.07]
    left = relation("l", [(20, 30)], [0.9])
    right = relation("r", spans, probabilities)
    events = left.events.merge(right.events)
    pair = Pair(
        kind, SCHEMA, SCHEMA, early_emit=True,
        events=events, materialize_probabilities=True,
    )
    pair.process(emit(LEFT, left.tuples[0]))
    # The negative at position ``late`` (one of the five at [25,26)) arrives last.
    order = [i for i in range(len(spans)) if i != late] + [late]
    for index in order:
        pair.process(emit(RIGHT, right.tuples[index]))
    pair.process(Tagged(LEFT, Watermark(40)))
    pair.process(Tagged(RIGHT, Watermark(40)))
    pair.close()
    expected = BATCH_JOINS[kind](left, right, theta_or_true(SCHEMA, SCHEMA, ON))
    assert Counter(map(row, pair.new.settled_outputs.values())) == Counter(
        map(row, expected.tuples)
    )


def test_group_that_published_empty_emits_afresh():
    """Everything retracted, then a window again: an ``EMIT``, not a ``REFINE``."""
    left = relation("l", [(2, 8)])
    right = relation("r", [(4, 6), (5, 7)])
    pair = Pair("inner", SCHEMA, SCHEMA, early_emit=True)
    assert kinds_of(pair.process(emit(LEFT, left.tuples[0]))) == []
    assert kinds_of(pair.process(emit(RIGHT, right.tuples[0]))) == [RevisionKind.EMIT]
    assert kinds_of(pair.process(retract(RIGHT, right.tuples[0]))) == [
        RevisionKind.RETRACT
    ]
    assert not pair.new.settled_outputs
    assert kinds_of(pair.process(emit(RIGHT, right.tuples[1]))) == [RevisionKind.EMIT]
    # The group was counted once, at its first non-empty publication.
    assert pair.new.stats.groups_published_early == 1
    pair.close()
    assert len(pair.new.settled_outputs) == 1


@pytest.mark.parametrize("early", [True, False])
def test_inner_group_that_never_matches_settles_silently(early):
    left = relation("l", [(2, 8)])
    pair = Pair("inner", SCHEMA, SCHEMA, early_emit=early)
    assert pair.process(emit(LEFT, left.tuples[0])) == []
    out = pair.process(Tagged(LEFT, Watermark(9))) + pair.process(
        Tagged(RIGHT, Watermark(9))
    )
    assert kinds_of(out) == []
    assert pair.new.stats.groups_settled == 1
    assert len(pair.new.emit_latencies) == 1
    pair.close()
    assert not pair.new.settled_outputs


@pytest.mark.parametrize("kind", ["left_outer", "full_outer"])
def test_positive_retracted_after_publication(kind):
    left = relation("l", [(2, 8), (3, 9)])
    right = relation("r", [(4, 6)])
    pair = Pair(kind, SCHEMA, SCHEMA, early_emit=True)
    pair.process(emit(LEFT, left.tuples[0]))
    pair.process(emit(RIGHT, right.tuples[0]))
    pair.process(emit(LEFT, left.tuples[1]))
    published = len(pair.new.settled_outputs)
    out = pair.process(retract(LEFT, left.tuples[0]))
    assert set(kinds_of(out)) <= {RevisionKind.RETRACT, RevisionKind.REFINE}
    assert kinds_of(out).count(RevisionKind.RETRACT) >= 4
    assert len(pair.new.settled_outputs) < published
    assert pair.new.maintainer.open_positives == 1
    # The survivor's group is untouched and settles as published.
    pair.close()
    assert all(
        "l0" not in str(tp_tuple.lineage)
        for tp_tuple in pair.new.settled_outputs.values()
    )


# --------------------------------------------------------------------------- #
# pins: what the per-revision path no longer does
# --------------------------------------------------------------------------- #
def counting(monkeypatch, owner, name) -> List[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_overlapping_negatives_in_one_batch_republish_their_group_once(monkeypatch):
    left = relation("l", [(2, 20)])
    right = relation("r", [(3, 6), (5, 9), (8, 12), (11, 15)])
    join = RevisionJoin("left_outer", SCHEMA, SCHEMA, ON, early_emit=True)
    assert kinds_of(step(join, emit(LEFT, left.tuples[0]))) == [RevisionKind.EMIT]
    # Every derivation of a left outer group runs LAWAN's sweep once.
    sweeps = counting(monkeypatch, joins_module, "negating_sweep")
    for tp_tuple in right.tuples:
        assert join.process(emit(RIGHT, tp_tuple)) == []
    assert sweeps[0] == 0
    out = flatten(join.end_batch())
    assert sweeps[0] == 1
    # One delta: the unmatched window goes once, the new windows arrive once.
    assert kinds_of(out).count(RevisionKind.RETRACT) == 1
    assert set(kinds_of(out)) == {RevisionKind.RETRACT, RevisionKind.REFINE}
    assert join.end_batch() == []
    expected = BATCH_JOINS["left_outer"](left, right, theta_or_true(SCHEMA, SCHEMA, ON))
    assert Counter(row(t)[:3] for t in join.settled_outputs.values()) == Counter(
        row(t)[:3] for t in expected.tuples
    )


def test_group_settled_inside_its_batch_publishes_before_the_watermark():
    left = relation("l", [(2, 8)])
    right = relation("r", [(4, 6)])
    pair = Pair("left_outer", SCHEMA, SCHEMA, early_emit=True)
    assert kinds_of(pair.process(emit(LEFT, left.tuples[0]))) == [RevisionKind.EMIT]
    assert pair.feed(emit(RIGHT, right.tuples[0])) == []
    assert pair.feed(Tagged(LEFT, Watermark(9))) == []
    out = pair.feed(Tagged(RIGHT, Watermark(9)))
    # The pending delta, then the watermark that passes the group.
    assert kinds_of(out)[0] is RevisionKind.RETRACT
    assert set(kinds_of(out)[1:]) == {RevisionKind.REFINE}
    assert out[-1] == Watermark(9)
    assert all(isinstance(element, Revision) for element in out[:-1])
    assert pair.new.stats.groups_settled == 1
    # Settled, so the batch end has nothing left to say about it.
    assert pair.end_batch() == []
    pair.close()


@pytest.mark.parametrize("kind", ["left_outer", "full_outer"])
def test_positive_added_and_retracted_in_one_batch_publishes_nothing(kind):
    left = relation("l", [(2, 8)])
    right = relation("r", [(4, 6)])
    pair = Pair(kind, SCHEMA, SCHEMA, early_emit=True)
    pair.process(emit(RIGHT, right.tuples[0]))
    before = dataclasses.replace(pair.new.stats)
    assert pair.feed(emit(LEFT, left.tuples[0])) == []
    assert pair.feed(retract(LEFT, left.tuples[0])) == []
    assert pair.end_batch() == []
    assert pair.new.stats == dataclasses.replace(before, inputs_retracted=1)
    pair.close()


@pytest.mark.parametrize("kind", ["left_outer", "full_outer"])
def test_finalizing_watermark_derives_nothing_in_early_mode(monkeypatch, kind):
    left = relation("l", [(2, 8), (3, 9), (10, 14)])
    right = relation("r", [(4, 6), (5, 12)])
    join = RevisionJoin(kind, SCHEMA, SCHEMA, ON, early_emit=True)
    for tp_tuple in left.tuples:
        step(join, emit(LEFT, tp_tuple))
    for tp_tuple in right.tuples:
        step(join, emit(RIGHT, tp_tuple))
    published = len(join.settled_outputs)
    # Every derivation of a group of these kinds runs LAWAN's sweep once.
    sweeps = counting(monkeypatch, joins_module, "negating_sweep")
    out = join.process(Tagged(LEFT, Watermark(9))) + join.process(
        Tagged(RIGHT, Watermark(9))
    )
    assert join.stats.groups_settled >= 2, "the watermark must finalize groups"
    assert sweeps[0] == 0
    # What was published is what is settled: nothing is said about it again.
    assert kinds_of(out) == []
    assert len(join.settled_outputs) == published
    # Early emission off derives each group exactly once, at settle.
    plain = RevisionJoin(kind, SCHEMA, SCHEMA, ON)
    for tp_tuple in left.tuples:
        plain.process(emit(LEFT, tp_tuple))
    for tp_tuple in right.tuples:
        plain.process(emit(RIGHT, tp_tuple))
    assert sweeps[0] == 0
    plain.process(Tagged(LEFT, Watermark(9)))
    plain.process(Tagged(RIGHT, Watermark(9)))
    assert sweeps[0] == plain.stats.groups_settled


@pytest.mark.parametrize("early", [True, False])
@pytest.mark.parametrize("kind", ["left_outer", "full_outer"])
def test_process_renders_no_key_on_tie_free_input(monkeypatch, kind, early):
    """No element — addition, retraction, watermark, close — calls ``key()``.

    Tie-free: no two matches of one group share an overlap ``(start, end)``,
    the one case in which sweep order still needs the rendered key.
    """
    left = relation("l", [(2, 8), (5, 11), (10, 14), (13, 17)])
    right = relation("r", [(1, 4), (6, 12), (7, 9), (15, 18)])
    join = RevisionJoin(kind, SCHEMA, SCHEMA, ON, early_emit=early)
    rendered = counting(monkeypatch, TPTuple, "key")
    for tp_tuple in left.tuples:
        step(join, emit(LEFT, tp_tuple))
    for tp_tuple in right.tuples:
        step(join, emit(RIGHT, tp_tuple))
    step(join, retract(RIGHT, right.tuples[1]))
    step(join, retract(LEFT, left.tuples[3]))
    step(join, emit(RIGHT, right.tuples[1]))
    step(join, Tagged(LEFT, Watermark(12)))
    step(join, Tagged(RIGHT, Watermark(12)))
    assert join.stats.groups_settled >= 2 and join.stats.inputs_retracted == 2
    join.close()
    assert rendered[0] == 0
    assert join.settled_outputs
    assert rendered[0] == 0, "the net output is keyed structurally too"
