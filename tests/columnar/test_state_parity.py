"""Columnar vs object maintainer: same inputs, same state, same outputs.

The columnar maintainer's contract is *equivalence*, not resemblance: for
any interleaving of ingestion, retraction and watermark advancement it must
produce the same entries, the same match lists, the same finalized groups
and the same stats counters as
:class:`repro.stream.incremental.IncrementalWindowMaintainer`.  These tests
drive both implementations with identical randomized operation sequences
and compare everything observable.  Finalization order *across* keys is the
one sanctioned difference (both walk key dicts populated in potentially
different orders), so finalized batches compare as canonical multisets.
"""

from __future__ import annotations

import random

import pytest

from repro.columnar import HAS_NUMPY, maintainer_class
from repro.core.joins import swap_theta
from repro.lineage import Var
from repro.relation import (
    EquiJoinCondition,
    PredicateCondition,
    Schema,
    TPTuple,
    TrueCondition,
)
from repro.stream.incremental import IncrementalWindowMaintainer
from repro.temporal import Interval

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="columnar layout needs numpy")

LEFT_SCHEMA = Schema.of("Key", "Serial")
RIGHT_SCHEMA = Schema.of("Key", "Serial")


def _tuple(prefix: str, index: int, key: str, start: int, end: int) -> TPTuple:
    name = f"{prefix}{index}"
    return TPTuple((key, name), Var(name), Interval(start, end), None)


def _entry_view(entry):
    if entry is None:
        return None
    return (
        entry.tuple.key(),
        entry.serial,
        entry.key,
        [(record.r.key(), record.s.key(), record.interval) for record in entry.matches],
    )


def _group_view(group):
    return (
        group.group.r.key(),
        group.serial,
        group.key,
        [
            (record.r.key(), record.s.key(), record.interval)
            for record in group.group.matches
        ],
    )


def _apply(maintainer, op):
    """Apply one operation; return what it observably did."""
    kind = op[0]
    if kind == "add_pos":
        return ("add_pos", _entry_view(maintainer.add_positive(op[1], ingest_clock=op[2])))
    if kind == "add_neg":
        return ("add_neg", [_entry_view(entry) for entry in maintainer.add_negative(op[1])])
    if kind == "rm_pos":
        return ("rm_pos", _entry_view(maintainer.remove_positive(op[1])))
    if kind == "rm_neg":
        return ("rm_neg", [_entry_view(entry) for entry in maintainer.remove_negative(op[1])])
    if kind == "advance_left":
        groups = maintainer.advance_left(op[1])
        return ("adv_l", sorted(repr(_group_view(g)) for g in groups))
    if kind == "advance_right":
        groups = maintainer.advance_right(op[1])
        return ("adv_r", sorted(repr(_group_view(g)) for g in groups))
    assert kind == "close"
    return ("close", sorted(repr(_group_view(g)) for g in maintainer.close()))


def _drive(maintainer, operations):
    """Apply one operation list; return every observable result."""
    trace = []
    for op in operations:
        trace.append(_apply(maintainer, op))
        trace.append(
            (
                "state",
                maintainer.open_positives,
                maintainer.indexed_negatives,
                maintainer.min_open_start(),
                maintainer.combined_watermark,
            )
        )
    return trace


def _random_operations(seed: int, length: int = 120, num_keys: int = 3):
    rng = random.Random(seed)
    operations = []
    added_pos, added_neg = [], []
    watermark = -5
    for index in range(length):
        key = f"k{rng.randrange(num_keys)}"
        start = rng.randrange(0, 40)
        end = start + rng.randrange(1, 8)
        roll = rng.random()
        if roll < 0.35:
            operations.append(("add_pos", _tuple("p", index, key, start, end), index * 0.5))
            added_pos.append(operations[-1][1])
        elif roll < 0.70:
            operations.append(("add_neg", _tuple("n", index, key, start, end)))
            added_neg.append(operations[-1][1])
        elif roll < 0.78 and added_pos:
            operations.append(("rm_pos", rng.choice(added_pos)))
        elif roll < 0.86 and added_neg:
            operations.append(("rm_neg", rng.choice(added_neg)))
        elif roll < 0.93:
            watermark += rng.randrange(0, 4)
            operations.append(("advance_left", watermark))
        else:
            operations.append(("advance_right", watermark + rng.randrange(-2, 3)))
    operations.append(("close",))
    return operations


def _theta(kind: str):
    if kind == "equi":
        return EquiJoinCondition(LEFT_SCHEMA, RIGHT_SCHEMA, (("Key", "Key"),))
    if kind == "true":
        return TrueCondition()
    # A non-equi predicate forces the un-partitioned (_WHOLE_STREAM) path
    # plus per-candidate θ evaluation; swapping exercises the reverse
    # maintainer's delegating wrapper.
    return swap_theta(PredicateCondition(lambda left, right: left[0] <= right[0]))


@pytest.mark.parametrize("theta_kind", ("equi", "true", "swapped_predicate"))
@pytest.mark.parametrize("seed", range(8))
def test_randomized_operation_parity(theta_kind, seed):
    theta = _theta(theta_kind)
    operations = _random_operations(seed)
    object_trace = _drive(IncrementalWindowMaintainer(theta), list(operations))
    columnar_trace = _drive(maintainer_class("columnar")(theta), list(operations))
    assert object_trace == columnar_trace


@pytest.mark.parametrize("layout", ("object", "columnar"))
def test_a_shared_nan_key_matches_nothing(layout):
    """A dictionary finds a shared ``nan`` key by identity; θ's ``==`` rejects it."""
    nan = float("nan")

    def nan_tuple(name, start, end):
        return TPTuple((nan, name), Var(name), Interval(start, end), None)

    operations = [
        ("add_neg", nan_tuple("n0", 0, 8)),
        ("add_pos", nan_tuple("p0", 2, 10), 0.0),
        ("add_neg", nan_tuple("n1", 4, 6)),
        ("close",),
    ]
    trace = _drive(maintainer_class(layout)(_theta("equi")), operations)
    assert trace[2][1][3] == []  # the positive found no stored negative
    assert trace[4] == ("add_neg", [])  # the later negative found no positive


class _Unscannable(dict):
    """The open-entry dict, refusing to be walked (lookups still work)."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("min_open_start() scanned the open entries")

    __iter__ = keys = values = items = _refuse


def _scanned_min_open_start(maintainer) -> float:
    return min(
        (
            entry.tuple.start
            for _key, entries in maintainer.open_items()
            for entry in entries
        ),
        default=float("inf"),
    )


@pytest.mark.parametrize("layout", ("object", "columnar"))
@pytest.mark.parametrize("first_call_at", (0, 37))
@pytest.mark.parametrize("seed", range(6))
def test_min_open_start_is_exact_without_a_scan(layout, first_call_at, seed):
    """The derived watermark's input: exact after every operation, never a scan.

    The index is built by the first call — ``first_call_at`` operations into
    the run, so both the build-from-open-state and the maintained-from-empty
    paths are covered — and from then on every answer must come without
    walking the open entries, and equal a brute-force scan of them.
    """
    maintainer = maintainer_class(layout)(_theta("equi"))
    operations = _random_operations(seed, length=160)
    for index, op in enumerate(operations):
        _apply(maintainer, op)
        if index < first_call_at:
            continue
        expected = _scanned_min_open_start(maintainer)
        if index > first_call_at:
            held = maintainer._open
            maintainer._open = _Unscannable(held)
            try:
                assert maintainer.min_open_start() == expected, (index, op[0])
            finally:
                maintainer._open = held
        else:
            assert maintainer.min_open_start() == expected
    assert maintainer.min_open_start() == float("inf")


@pytest.mark.parametrize("layout", ("object", "columnar"))
def test_removal_finds_a_tuple_by_structure_not_by_object_or_text(layout, monkeypatch):
    """A retraction arrives as a copy (it crossed a process or a socket)."""
    maintainer = maintainer_class(layout)(_theta("equi"))
    positive = _tuple("p", 0, "k", 2, 9)
    decoy = _tuple("p", 1, "k", 2, 9)
    negative = _tuple("n", 0, "k", 4, 6)
    other = _tuple("n", 1, "k", 4, 6)
    for tp_tuple in (positive, decoy):
        maintainer.add_positive(tp_tuple)
    for tp_tuple in (negative, other):
        maintainer.add_negative(tp_tuple)

    def no_rendering(self):
        raise AssertionError("removal rendered a key()")

    monkeypatch.setattr(TPTuple, "key", no_rendering)
    affected = maintainer.remove_negative(_tuple("n", 0, "k", 4, 6))
    assert [entry.tuple for entry in affected] == [positive, decoy]
    assert [[record.s for record in entry.matches] for entry in affected] == [[other]] * 2
    assert maintainer.indexed_negatives == 1
    removed = maintainer.remove_positive(_tuple("p", 0, "k", 2, 9))
    assert removed is not None and removed.tuple is positive
    assert maintainer.remove_positive(_tuple("p", 0, "k", 2, 9)) is None
    assert maintainer.open_positives == 1


@pytest.mark.parametrize("seed", range(4))
def test_stats_counters_match(seed):
    theta = _theta("equi")
    operations = _random_operations(seed, length=200)
    object_maintainer = IncrementalWindowMaintainer(theta)
    columnar_maintainer = maintainer_class("columnar")(theta)
    _drive(object_maintainer, list(operations))
    _drive(columnar_maintainer, list(operations))
    assert columnar_maintainer.stats == object_maintainer.stats


def test_checkpoint_accessors_group_per_key_in_arrival_order():
    theta = _theta("equi")
    maintainer = maintainer_class("columnar")(theta)
    for index, (key, start) in enumerate(
        [("a", 0), ("b", 2), ("a", 5), ("b", 7), ("a", 9)]
    ):
        maintainer.add_positive(_tuple("p", index, key, start, start + 3))
        maintainer.add_negative(_tuple("n", index, key, start, start + 2))
    open_items = dict(maintainer.open_items())
    negative_items = dict(maintainer.negative_items())
    assert [entry.tuple.start for entry in open_items[("a",)]] == [0, 5, 9]
    assert [entry.tuple.start for entry in open_items[("b",)]] == [2, 7]
    assert [negative.start for negative in negative_items[("a",)]] == [0, 5, 9]


def test_compaction_preserves_arrival_order_and_results():
    """Force enough dead rows to trigger compaction mid-run, then verify the
    survivors still probe and finalize exactly like the object maintainer."""
    theta = _theta("equi")
    object_maintainer = IncrementalWindowMaintainer(theta)
    columnar_maintainer = maintainer_class("columnar")(theta)
    operations = []
    tuples = []
    for index in range(700):
        tp = _tuple("n", index, "a", index % 40, index % 40 + 3)
        operations.append(("add_neg", tp))
        tuples.append(tp)
    # Retract most of them so dead rows outnumber the living.
    for tp in tuples[:600]:
        operations.append(("rm_neg", tp))
    for index in range(40):
        operations.append(("add_pos", _tuple("p", index, "a", index, index + 4), 0.0))
    operations.append(("close",))
    assert _drive(object_maintainer, list(operations)) == _drive(
        columnar_maintainer, list(operations)
    )
