"""Incremental window maintainer: finalization timing, eviction, lateness."""

from __future__ import annotations

from repro.core.windows import WindowClass
from repro.core.lawan import iter_lawan
from repro.relation import Schema, TPRelation, equi_join_on
from repro.stream import IncrementalWindowMaintainer
from repro.temporal import Interval


def _relation(name, *rows):
    return TPRelation.from_rows(
        Schema.of("Key", "Serial"),
        [
            (key, f"{name}{i}", f"{name}{i}", start, end, 0.5)
            for i, (key, start, end) in enumerate(rows)
        ],
        name=name,
    )


def _theta(left, right):
    return equi_join_on(left.schema, right.schema, [("Key", "Key")])


def test_nothing_finalizes_before_the_combined_watermark_passes_a_tuple():
    left = _relation("l", ("k", 0, 10))
    right = _relation("r", ("k", 2, 5))
    maintainer = IncrementalWindowMaintainer(_theta(left, right))
    maintainer.add_positive(left.tuples[0])
    maintainer.add_negative(right.tuples[0])
    # Combined watermark is min(left, right): one side alone is not enough.
    assert maintainer.advance_left(50) == []
    assert maintainer.advance_right(9) == []
    assert maintainer.open_positives == 1
    finalized = maintainer.advance_right(10)
    assert len(finalized) == 1
    assert maintainer.open_positives == 0


def test_finalized_group_reproduces_the_batch_windows():
    left = _relation("l", ("k", 0, 10))
    right = _relation("r", ("k", 2, 5), ("k", 4, 7))
    maintainer = IncrementalWindowMaintainer(_theta(left, right))
    # Deliver negatives out of event-time order.
    maintainer.add_negative(right.tuples[1])
    maintainer.add_positive(left.tuples[0])
    maintainer.add_negative(right.tuples[0])
    (finalized,) = maintainer.advance_left(10) + maintainer.advance_right(10)
    windows = list(iter_lawan([finalized.group]))
    classes = [w.window_class for w in windows]
    assert classes.count(WindowClass.OVERLAPPING) == 2
    assert classes.count(WindowClass.UNMATCHED) == 2  # [0,2) and [7,10)
    assert classes.count(WindowClass.NEGATING) == 3  # [2,4), [4,5), [5,7)
    intervals = [w.interval for w in windows if w.window_class is WindowClass.UNMATCHED]
    assert intervals == [Interval(0, 2), Interval(7, 10)]


def test_each_group_finalizes_exactly_once_and_is_never_retracted():
    left = _relation("l", ("k", 0, 4), ("k", 6, 9))
    right = _relation("r", ("k", 1, 3))
    maintainer = IncrementalWindowMaintainer(_theta(left, right))
    for tp_tuple in left:
        maintainer.add_positive(tp_tuple)
    maintainer.add_negative(right.tuples[0])
    first = maintainer.advance_left(5) + maintainer.advance_right(5)
    assert [g.group.r.end for g in first] == [4]
    # Re-advancing to the same watermark finalizes nothing again.
    assert maintainer.advance_left(5) == []
    second = maintainer.advance_right(100) + maintainer.advance_left(100)
    assert [g.group.r.end for g in second] == [9]


def test_late_events_behind_the_watermark_are_dropped_and_counted():
    left = _relation("l", ("k", 0, 4), ("k", 20, 24))
    right = _relation("r", ("k", 1, 3))
    maintainer = IncrementalWindowMaintainer(_theta(left, right))
    maintainer.advance_left(10)
    maintainer.advance_right(10)
    maintainer.add_positive(left.tuples[0])  # starts at 0 < watermark 10
    maintainer.add_negative(right.tuples[0])  # starts at 1 < watermark 10
    assert maintainer.stats.late_positives_dropped == 1
    assert maintainer.stats.late_negatives_dropped == 1
    maintainer.add_positive(left.tuples[1])  # on time
    assert maintainer.open_positives == 1


def test_negatives_are_evicted_once_no_future_positive_can_overlap():
    left = _relation("l", ("k", 0, 4))
    right = _relation("r", ("k", 1, 3), ("k", 30, 35))
    maintainer = IncrementalWindowMaintainer(_theta(left, right))
    maintainer.add_positive(left.tuples[0])
    for tp_tuple in right:
        maintainer.add_negative(tp_tuple)
    assert maintainer.indexed_negatives == 2
    maintainer.advance_left(10)  # future positives start >= 10 > 3 = s1.end
    assert maintainer.indexed_negatives == 1
    assert maintainer.stats.negatives_evicted == 1
    maintainer.close()
    assert maintainer.indexed_negatives == 0


def test_close_finalizes_everything():
    left = _relation("l", ("k", 0, 1000))
    maintainer = IncrementalWindowMaintainer(_theta(left, left))
    maintainer.add_positive(left.tuples[0])
    finalized = maintainer.close()
    assert len(finalized) == 1
    assert maintainer.open_positives == 0


# --------------------------------------------------------------------------- #
# a watermark walks only the keys it can touch
# --------------------------------------------------------------------------- #
def _keyed_relation(name, keys, spans):
    """One tuple per (key, span), keys outermost: every key holds ``spans``."""
    return _relation(name, *[(key, start, end) for key in keys for start, end in spans])


def _lists(state):
    """The list object each key currently holds."""
    return {key: id(entries) for key, entries in state.items()}


def test_a_finalizing_watermark_rebuilds_only_the_keys_it_finalizes():
    keys = [f"k{index}" for index in range(12)]
    left = _keyed_relation("l", keys, [(20, 40), (30, 60)])
    early = _relation("e", ("k3", 0, 5), ("k3", 1, 9), ("k7", 2, 8), ("k10", 0, 6))
    maintainer = IncrementalWindowMaintainer(_theta(left, left))
    for tp_tuple in list(early) + list(left):
        maintainer.add_positive(tp_tuple)
    before = _lists(maintainer._open)
    maintainer.advance_right(10)
    finalized = maintainer.advance_left(10)
    # Key order, then entry order, as the keys were first seen.
    assert [(g.group.r.fact[0], g.group.r.start) for g in finalized] == [
        ("k3", 0), ("k3", 1), ("k7", 2), ("k10", 0),
    ]
    after = _lists(maintainer._open)
    rebuilt = {key for key in before if after.get(key) != before[key]}
    assert rebuilt == {("k3",), ("k7",), ("k10",)}
    # Every key still holds its two late entries, and its exact bound.
    assert list(after) == list(before)
    assert maintainer._open_ends == {(key,): 40 for key in keys}


def test_an_evicting_watermark_rebuilds_only_the_keys_it_evicts_from():
    keys = [f"k{index}" for index in range(12)]
    right = _keyed_relation("r", keys, [(20, 40), (30, 60)])
    early = _relation("e", ("k1", 0, 5), ("k8", 2, 8), ("k8", 3, 4))
    maintainer = IncrementalWindowMaintainer(_theta(right, right))
    for tp_tuple in list(early) + list(right):
        maintainer.add_negative(tp_tuple)
    before = _lists(maintainer._negatives)
    maintainer.advance_left(10)
    assert maintainer.stats.negatives_evicted == 3
    after = _lists(maintainer._negatives)
    assert {key for key in before if after[key] != before[key]} == {("k1",), ("k8",)}
    assert maintainer._negative_ends == {(key,): 40 for key in keys}


def test_a_key_emptied_and_seen_again_moves_to_the_end_of_the_walk():
    left = _relation("l", ("a", 0, 4), ("b", 0, 20), ("a", 12, 14), ("b", 13, 30))
    maintainer = IncrementalWindowMaintainer(_theta(left, left))
    maintainer.add_positive(left.tuples[0])
    maintainer.add_positive(left.tuples[1])
    maintainer.advance_right(10)
    assert [g.group.r.fact[0] for g in maintainer.advance_left(10)] == ["a"]
    maintainer.add_positive(left.tuples[2])
    maintainer.add_positive(left.tuples[3])
    maintainer.advance_right(100)
    finalized = maintainer.advance_left(100)
    assert [(g.group.r.fact[0], g.group.r.end) for g in finalized] == [
        ("b", 20), ("b", 30), ("a", 14),
    ]


def test_a_retraction_leaves_a_bound_the_next_walk_tightens():
    left = _relation("l", ("k", 0, 5), ("k", 3, 30), ("j", 4, 40))
    maintainer = IncrementalWindowMaintainer(_theta(left, left))
    for tp_tuple in left:
        maintainer.add_positive(tp_tuple)
    assert maintainer.remove_positive(left.tuples[0]) is not None
    assert maintainer._open_ends == {("k",): 5, ("j",): 40}  # a lower bound still
    maintainer.advance_right(10)
    assert maintainer.advance_left(10) == []
    assert maintainer._open_ends == {("k",): 30, ("j",): 40}
    assert maintainer.remove_positive(left.tuples[1]) is not None
    assert maintainer._open_ends == {("j",): 40}


def test_loading_entries_and_negatives_sets_their_keys_bounds():
    left = _relation("l", ("k", 5, 30), ("k", 4, 12), ("j", 6, 40))
    right = _relation("r", ("k", 7, 22), ("k", 9, 15), ("j", 8, 50))
    source = IncrementalWindowMaintainer(_theta(left, right))
    for tp_tuple in left:
        source.add_positive(tp_tuple)
    for tp_tuple in right:
        source.add_negative(tp_tuple)
    restored = IncrementalWindowMaintainer(_theta(left, right))
    for key, entries in source.open_items():
        restored.load_open_entries(key, entries)
    for key, bucket in source.negative_items():
        restored.load_negatives(key, bucket)
    restored.load_open_entries(("k",), [])
    restored.load_negatives(("z",), [])
    assert restored._open_ends == {("k",): 12, ("j",): 40}
    assert restored._negative_ends == {("k",): 15, ("j",): 50}
    assert (restored.open_positives, restored.indexed_negatives) == (3, 3)
    # The bounds drive the walks as the ingested ones do.
    for maintainer in (source, restored):
        maintainer.advance_right(13)
    finalized = [restored.advance_left(16), source.advance_left(16)]
    assert [[g.group.r for g in groups] for groups in finalized] == [[left.tuples[1]]] * 2
    assert restored.indexed_negatives == source.indexed_negatives == 2
