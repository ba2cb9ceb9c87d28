"""Checkpoint codec: snapshot + suffix replay ≡ the uninterrupted run.

These tests drive :class:`repro.runtime.worker.Worker` instances directly
(no transport): one worker consumes the whole element sequence, a second
is snapshotted mid-stream, and a third — fresh — is restored from that
snapshot and fed only the suffix.  The restored worker must finish with
settled output and operator statistics identical to the uninterrupted one,
bit for bit.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.lineage import canonical
from repro import ExecutionOptions
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_elements,
    encode_maintainer,
    restore_worker,
    snapshot_worker,
)
from repro.relation import Schema, TPRelation, TPTuple
from repro.runtime.worker import SOURCE_CHANNEL, Worker
from repro.stream import continuous_join
from repro.stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark

from tests.conftest import shard_specs
from tests.recovery.conftest import query_catalog

ON = (("Key", "Key"),)
SEED = 41


class _NullEmitter:
    """Stream shards keep their settled tuples; nothing goes downstream."""

    def send(self, target, channel, tagged) -> None:  # pragma: no cover
        raise AssertionError("stream shards have no downstream")

    def done(self, target) -> None:
        pass

    def flush(self) -> None:
        pass


def _elements(seed: int = SEED):
    from repro.stream.source import merge_tagged

    catalog, _left, _right = query_catalog(seed, left_size=60, right_size=60)
    left_def = catalog.lookup_stream("l")
    right_def = catalog.lookup_stream("r")
    merged = list(merge_tagged(left_def.replay(), right_def.replay(), seed=seed))
    return catalog, merged


def _spec(catalog, kind: str, materialize: bool = False):
    options = ExecutionOptions(materialize_probabilities=materialize)
    _graph, (spec,), _stages = shard_specs(catalog, kind, options)
    return spec


def _feed(worker: Worker, elements) -> None:
    for tagged in elements:
        channel = SOURCE_CHANNEL if isinstance(tagged.element, Watermark) else None
        worker.accept(channel, tagged)


def _rows(report) -> list[str]:
    return sorted(
        repr((t.fact, str(canonical(t.lineage)), t.start, t.end, t.probability))
        for t in report.outputs
    )


KINDS = ("inner", "left_outer", "right_outer", "full_outer", "anti")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cut_fraction", (0.25, 0.5, 0.9))
def test_snapshot_plus_suffix_equals_uninterrupted_run(kind, cut_fraction):
    """Snapshot at any boundary, restore into a fresh worker, feed the
    suffix: settled output and stats match the straight-through run.
    right_outer and full_outer cover the mirrored reverse maintainer;
    probabilities are materialized, so the restored worker recomputes them
    with a cold memo and must land on the same floats.  The snapshot is
    restored from its pickled frame, as it crosses a socket."""
    catalog, merged = _elements()
    spec = _spec(catalog, kind, materialize=True)
    cut = int(len(merged) * cut_fraction)

    straight = Worker(spec, _NullEmitter())
    _feed(straight, merged)
    expected = straight.finish()

    original = Worker(spec, _NullEmitter())
    _feed(original, merged[:cut])
    payload = pickle.loads(pickle.dumps(snapshot_worker(original, cut)))
    assert checkpoint_elements(payload) == cut

    restored = Worker(spec, _NullEmitter())
    assert restore_worker(restored, payload) == cut
    _feed(restored, merged[cut:])
    resumed = restored.finish()

    assert _rows(resumed) == _rows(expected)
    # Latency values are wall-clock, but one is recorded per settled emit —
    # the restored worker must account for every pre-checkpoint emit too.
    assert len(resumed.emit_latencies) == len(expected.emit_latencies)
    # Event lags are event time, measured from the restored input frontier.
    assert resumed.emit_event_lags == expected.emit_event_lags
    assert resumed.stats == expected.stats
    assert resumed.late_dropped == expected.late_dropped


def test_snapshot_round_trips_through_pickle():
    """Checkpoint frames ride the socket transport's pickle framing."""
    catalog, merged = _elements()
    spec = _spec(catalog, "left_outer")
    worker = Worker(spec, _NullEmitter())
    _feed(worker, merged[: len(merged) // 2])
    payload = snapshot_worker(worker, len(merged) // 2)
    clone = pickle.loads(pickle.dumps(payload))
    assert clone == payload
    assert clone[0] == CHECKPOINT_VERSION


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_payload_holds_only_primitives_and_tp_tuples(kind):
    """Every value in a mid-stream snapshot, nested at any depth, is a
    primitive or a TP tuple: the frame carries no class of the maintainer's
    own, and the tuples pickle as the value objects they are."""
    catalog, merged = _elements()
    worker = Worker(_spec(catalog, kind, materialize=True), _NullEmitter())
    _feed(worker, merged[: len(merged) // 2])
    payload = snapshot_worker(worker, len(merged) // 2)

    def assert_primitive(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                assert_primitive(item)
        elif isinstance(value, dict):
            for key, item in value.items():
                assert_primitive(key)
                assert_primitive(item)
        elif not isinstance(value, TPTuple):
            assert value is None or isinstance(value, (bool, int, float, str)), (
                f"non-primitive {type(value).__name__} in checkpoint payload"
            )

    assert_primitive(payload)


@pytest.mark.parametrize("version", (1, 2, 3, CHECKPOINT_VERSION + 1))
def test_version_mismatch_is_rejected_loudly(version):
    """Version 1 frames carried the probability memo, version 2 frames
    coded their tuples and version 3 frames held a collecting worker's
    outputs and two counters; all are refused by name, not mis-decoded."""
    catalog, merged = _elements()
    spec = _spec(catalog, "anti")
    worker = Worker(spec, _NullEmitter())
    _feed(worker, merged[:20])
    payload = snapshot_worker(worker, 20)
    stale = (version,) + payload[1:]
    fresh = Worker(spec, _NullEmitter())
    with pytest.raises(ValueError, match=f"checkpoint version {version} "):
        restore_worker(fresh, stale)


def _frame_bytes_after(groups: int) -> int:
    """Pickled size of a maintainer frame after ``groups`` finalized groups.

    Every run ends in the same open state — both watermarks at 5000, one
    open positive at [6000, 6005) — and counts stay below 256 so every
    counter in the frame pickles to the same width.
    """

    def relation(name, rows):
        return TPRelation.from_rows(
            Schema.of("Key", "Serial"),
            [
                ("k", f"{name}{i}", f"{name}{i}", start, end, 0.5)
                for i, (start, end) in enumerate(rows)
            ],
            name=name,
        )

    left = relation("l", [(10 * i, 10 * i + 5) for i in range(groups)])
    right = relation("r", [(10 * i + 1, 10 * i + 3) for i in range(groups)])
    still_open = relation("o", [(6000, 6005)])
    join = continuous_join(
        "left_outer",
        left.schema,
        right.schema,
        ON,
        events=left.events.merge(right.events).merge(still_open.events),
        materialize_probabilities=True,
    )
    for positive, negative in zip(left.tuples, right.tuples):
        join.process(Tagged(LEFT, StreamEvent(positive)))
        join.process(Tagged(RIGHT, StreamEvent(negative)))
    join.process(Tagged(LEFT, Watermark(5000)))
    outputs = join.process(Tagged(RIGHT, Watermark(5000)))
    assert join.stats.groups_settled == groups
    assert all(tp_tuple.probability is not None for tp_tuple in outputs)
    counters = join.maintainer.probability_counters()
    assert counters["probability_factorised"] + counters["probability_cache_misses"] >= groups
    join.process(Tagged(LEFT, StreamEvent(still_open.tuples[0])))
    assert join.maintainer.open_positives == 1
    return len(pickle.dumps(encode_maintainer(join.maintainer)))


def test_checkpoint_size_follows_the_open_state_not_the_run_length():
    """The probability memo does not ride the frame: ten times the
    finalized groups (and evaluated lineages) behind the same open state
    make the checkpoint no larger."""
    assert _frame_bytes_after(200) <= _frame_bytes_after(20)


def test_an_open_entry_frames_as_its_tuple_with_overlap_bounds():
    """The maintainer frame, pinned literally (unchanged since
    ``CHECKPOINT_VERSION`` 3): per key, each open entry is its tuple,
    ingest clock, serial and one ``(negative tuple, overlap start, overlap
    end)`` per match."""

    def base(name, start, end):
        return TPRelation.from_rows(
            Schema.of("Key", "Serial"), [("k", name, name, start, end, 0.5)], name=name
        )

    left, right = base("l0", 2, 8), base("r0", 4, 10)
    join = continuous_join(
        "left_outer", left.schema, right.schema, ON, clock=lambda: 1.5
    )
    join.process(Tagged(LEFT, StreamEvent(left.tuples[0])))
    join.process(Tagged(RIGHT, StreamEvent(right.tuples[0])))
    frame = encode_maintainer(join.maintainer)
    l0, r0 = left.tuples[0], right.tuples[0]
    assert frame[7:] == ([(("k",), [(l0, 1.5, 1, [(r0, 4, 8)])])], [(("k",), [r0])])
    # The match's negative is the indexed one: pickle writes it once.
    assert frame[7][0][1][0][3][0][0] is frame[8][0][1][0]


@pytest.mark.parametrize(
    "edit", [dict(early_emit=True), dict(tap=lambda _channel, _element: None)]
)
def test_workers_that_are_not_checkpointable_are_refused(edit):
    """An early-emitting or tapped worker must be refused — a single-worker
    snapshot cannot capture its provisional publications."""
    catalog, merged = _elements()
    spec = replace(_spec(catalog, "left_outer"), **edit)
    assert not spec.checkpointable
    worker = Worker(spec, _NullEmitter())
    _feed(worker, merged[:10])
    with pytest.raises(ValueError, match="checkpointable"):
        snapshot_worker(worker, 10)


def test_checkpoint_elements_of_none_is_zero():
    assert checkpoint_elements(None) == 0
