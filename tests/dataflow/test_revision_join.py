"""Unit semantics of the retractable RevisionJoin operator."""

from __future__ import annotations

import pytest

from repro import Schema, TPRelation
from repro.dataflow import Revision, RevisionJoin, RevisionKind
from repro.stream import LEFT, RIGHT, Tagged, Watermark


def rel(prefix, rows):
    return TPRelation.from_rows(Schema.of("Key", "Serial"), rows, name=prefix)


@pytest.fixture()
def tiny():
    left = rel("l", [("k", "l0", "l0", 2, 8, 0.7), ("k", "l1", "l1", 10, 14, 0.5)])
    right = rel("r", [("k", "r0", "r0", 4, 6, 0.9)])
    return left, right


def emit(side, tp_tuple):
    return Tagged(side, Revision(RevisionKind.EMIT, tp_tuple))


def retract(side, tp_tuple):
    return Tagged(side, Revision(RevisionKind.RETRACT, tp_tuple))


def step(join, tagged):
    """One element as a batch of one, as the inline transport runs it."""
    return join.process(tagged) + [
        element for _trace, run in join.end_batch() for element in run
    ]


def additions(elements):
    return [e for e in elements if isinstance(e, Revision) and e.adds]


def retractions(elements):
    return [
        e for e in elements if isinstance(e, Revision) and e.kind is RevisionKind.RETRACT
    ]


def watermarks(elements):
    return [e for e in elements if isinstance(e, Watermark)]


def test_watermark_only_mode_emits_nothing_before_finalization(tiny):
    left, right = tiny
    join = RevisionJoin("left_outer", left.schema, right.schema, [("Key", "Key")])
    l0 = left.tuples[0]
    assert join.process(emit(LEFT, l0)) == []
    out = join.process(Tagged(LEFT, Watermark(9))) + join.process(
        Tagged(RIGHT, Watermark(9))
    )
    # l0 ends at 8 <= 9: settled exactly once, never provisional.
    settled = additions(out)
    assert settled and all(not r.provisional for r in settled)
    assert not retractions(out)
    assert join.stats.groups_settled == 1


def test_early_emit_publishes_provisionally_then_refines(tiny):
    left, right = tiny
    join = RevisionJoin(
        "left_outer", left.schema, right.schema, [("Key", "Key")], early_emit=True
    )
    l0 = left.tuples[0]
    r0 = right.tuples[0]
    first = step(join, emit(LEFT, l0))
    # The whole interval is published provisionally as a single unmatched window.
    assert [r.kind for r in additions(first)] == [RevisionKind.EMIT]
    assert additions(first)[0].provisional
    assert additions(first)[0].tuple.interval == l0.interval
    # The matching negative splits the window: stale retracted, refined emitted.
    second = step(join, emit(RIGHT, r0))
    assert retractions(second), "stale provisional window must be retracted"
    assert all(r.kind is RevisionKind.REFINE for r in additions(second))
    # Settlement produces no further change: provisional state was already exact.
    final = step(join, Tagged(LEFT, Watermark(20))) + step(
        join, Tagged(RIGHT, Watermark(20))
    )
    assert not retractions(final)
    assert join.stats.groups_settled >= 1


def test_input_retraction_unwinds_published_windows(tiny):
    left, right = tiny
    join = RevisionJoin(
        "left_outer", left.schema, right.schema, [("Key", "Key")], early_emit=True
    )
    l0 = left.tuples[0]
    r0 = right.tuples[0]
    step(join, emit(LEFT, l0))
    step(join, emit(RIGHT, r0))
    before = dict(join.settled_outputs)
    # Two unmatched segments, the overlapping window and the negating window.
    assert len(before) == 4
    # Retracting the negative restores the single unmatched window.
    out = step(join, retract(RIGHT, r0))
    assert retractions(out)
    assert len(join.settled_outputs) == 1
    only = next(iter(join.settled_outputs.values()))
    assert only.interval == l0.interval
    assert join.maintainer.indexed_negatives == 0


def test_positive_retraction_withdraws_the_whole_group(tiny):
    left, right = tiny
    join = RevisionJoin(
        "anti", left.schema, right.schema, [("Key", "Key")], early_emit=True
    )
    l0 = left.tuples[0]
    step(join, emit(LEFT, l0))
    assert join.settled_outputs
    out = step(join, retract(LEFT, l0))
    assert retractions(out)
    assert not join.settled_outputs
    assert join.maintainer.open_positives == 0
    assert join.maintainer.stats.positives_retracted == 1


def test_derived_watermark_accounts_for_open_groups(tiny):
    left, right = tiny
    join = RevisionJoin("left_outer", left.schema, right.schema, [("Key", "Key")])
    l0, l1 = left.tuples
    join.process(emit(LEFT, l0))  # starts at 2
    join.process(emit(LEFT, l1))  # starts at 10
    out = join.process(Tagged(LEFT, Watermark(12)))
    out += join.process(Tagged(RIGHT, Watermark(12)))
    # l0 (ends 8) settled; l1 (ends 14) still open and starts at 10: the
    # derived watermark may not pass 10 even though inputs reached 12.
    marks = watermarks(out)
    assert marks and marks[-1].value == 10
    assert join.derived_watermark() == 10


def test_revisions_precede_their_covering_watermark(tiny):
    left, right = tiny
    join = RevisionJoin("left_outer", left.schema, right.schema, [("Key", "Key")])
    join.process(emit(LEFT, left.tuples[0]))
    join.process(Tagged(RIGHT, Watermark(20)))
    out = join.process(Tagged(LEFT, Watermark(20)))
    kinds = [type(element).__name__ for element in out]
    assert kinds.index("Revision") < kinds.index("Watermark")


def test_close_settles_everything(tiny):
    left, right = tiny
    join = RevisionJoin(
        "full_outer", left.schema, right.schema, [("Key", "Key")], early_emit=True
    )
    for tp_tuple in left.tuples:
        step(join, emit(LEFT, tp_tuple))
    for tp_tuple in right.tuples:
        step(join, emit(RIGHT, tp_tuple))
    out = join.close()
    assert watermarks(out)[-1].value == float("inf")
    assert join.maintainer.open_positives == 0
    assert join.reverse_maintainer.open_positives == 0


def test_unknown_kind_rejected(tiny):
    left, right = tiny
    with pytest.raises(ValueError):
        RevisionJoin("semi", left.schema, right.schema, [("Key", "Key")])


def test_materialize_requires_events(tiny):
    left, right = tiny
    with pytest.raises(ValueError):
        RevisionJoin(
            "anti",
            left.schema,
            right.schema,
            [("Key", "Key")],
            materialize_probabilities=True,
        )
