"""Checkpoint codec: snapshot and restore one collecting worker's state.

A checkpoint captures everything a replacement worker needs to continue a
continuous-join partition from a micro-batch boundary instead of from element
zero: the collected settled outputs, the per-side channel-watermark merges,
the operator's emit latencies and counters, and — the bulk — the forward
(and, for right/full outer joins, the mirrored reverse)
:class:`~repro.stream.incremental.IncrementalWindowMaintainer`: open
positives with their accrued overlap records, indexed negatives, watermark
horizons, serial counter and stats.  The probability computers' memos (one computer
per maintainer) are not part of it: a restored worker recomputes, and a recomputed probability is
bitwise the memoised one, so a frame's size follows the open state, not the
length of the run.

Payloads are tuples and lists of primitives and the state's own
:class:`~repro.relation.TPTuple` objects, which the socket transport's
framing pickles as they are: pickle's memo writes a lineage node or a
negative tuple that several entries share once, and unpickling rebuilds
them from C.  The codec is a bijection on the state it covers: restoring a
snapshot and replaying the post-checkpoint input suffix yields settled
output tuple-for-tuple, bitwise-probability equal to an unfailed run,
because floats (watermarks, intervals, the collected outputs'
probabilities) round-trip exactly through pickle and lineages unpickle to
structurally equal expressions.

Only output-collecting workers (``spec.collect_outputs``: the
:class:`~repro.stream.ContinuousJoin` nodes the graph compiler picks for a
stream query or a one-node early-off graph) are checkpointable: a worker with
peer edges has in-flight elements a single-worker snapshot cannot capture,
and a revision-publishing one keeps state this codec does not cover (see
:func:`repro.runtime.driver.recovery_blocker`).

Maintainer state is read and written only through the
:class:`~repro.stream.incremental.IncrementalWindowMaintainer` accessor
methods (``open_items`` / ``negative_items`` / ``load_open_entries`` /
``load_negatives``), never through its internal fields, so a change to how
the maintainer stores its state cannot change a ``CHECKPOINT_VERSION``
frame.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.overlap import OverlapRecord
from ..stream.elements import LEFT, RIGHT
from ..stream.incremental import IncrementalWindowMaintainer, OpenPositive

#: Bumped whenever the payload shape changes; restore rejects mismatches
#: loudly instead of mis-decoding a stale frame.
CHECKPOINT_VERSION = 3

__all__ = [
    "CHECKPOINT_VERSION",
    "checkpoint_elements",
    "encode_maintainer",
    "restore_maintainer",
    "restore_worker",
    "snapshot_worker",
]


# --------------------------------------------------------------------------- #
# maintainer codec
# --------------------------------------------------------------------------- #
def encode_maintainer(maintainer: IncrementalWindowMaintainer) -> tuple:
    """Flatten one incremental window maintainer into a picklable payload.

    Partition keys and tuples travel verbatim; each overlap record ships
    only the negative tuple and the overlap interval — the positive side is
    the open entry's own tuple and is rebound on restore.
    """
    stats = maintainer.stats
    open_code = []
    for key, entries in maintainer.open_items():
        entry_codes = []
        for entry in entries:
            entry_codes.append(
                (
                    entry.tuple,
                    entry.ingest_clock,
                    entry.serial,
                    [(record.s, record.start, record.end) for record in entry.matches],
                )
            )
        open_code.append((key, entry_codes))
    negative_code = maintainer.negative_items()
    return (
        maintainer._watermark_left,
        maintainer._watermark_right,
        maintainer._finalized_through,
        maintainer._min_open_end,
        maintainer._min_negative_end,
        maintainer._serial,
        (
            stats.positives_in,
            stats.negatives_in,
            stats.late_positives_dropped,
            stats.late_negatives_dropped,
            stats.groups_finalized,
            stats.negatives_evicted,
            stats.peak_open_positives,
            stats.peak_indexed_negatives,
            stats.positives_retracted,
            stats.negatives_retracted,
        ),
        open_code,
        negative_code,
    )


def restore_maintainer(maintainer: IncrementalWindowMaintainer, code: tuple) -> None:
    """Load an :func:`encode_maintainer` payload into a fresh maintainer.

    The maintainer must come straight out of the spec's operator
    constructor (same θ, same event space) with no elements ingested.
    """
    (
        watermark_left,
        watermark_right,
        finalized_through,
        min_open_end,
        min_negative_end,
        serial,
        stats_code,
        open_code,
        negative_code,
    ) = code
    maintainer._watermark_left = watermark_left
    maintainer._watermark_right = watermark_right
    maintainer._finalized_through = finalized_through
    maintainer._min_open_end = min_open_end
    maintainer._min_negative_end = min_negative_end
    maintainer._serial = serial
    stats = maintainer.stats
    (
        stats.positives_in,
        stats.negatives_in,
        stats.late_positives_dropped,
        stats.late_negatives_dropped,
        stats.groups_finalized,
        stats.negatives_evicted,
        stats.peak_open_positives,
        stats.peak_indexed_negatives,
        stats.positives_retracted,
        stats.negatives_retracted,
    ) = stats_code
    for key, entry_codes in open_code:
        entries: List[OpenPositive] = []
        for positive, ingest_clock, entry_serial, match_codes in entry_codes:
            entry = OpenPositive(
                positive, ingest_clock=ingest_clock, key=key, serial=entry_serial
            )
            for negative, overlap_start, overlap_end in match_codes:
                entry.matches.append(
                    OverlapRecord(positive, negative, overlap_start, overlap_end)
                )
            entries.append(entry)
        maintainer.load_open_entries(key, entries)
    for key, bucket in negative_code:
        maintainer.load_negatives(key, bucket)


# --------------------------------------------------------------------------- #
# worker snapshot / restore
# --------------------------------------------------------------------------- #
def _encode_trackers(worker) -> tuple:
    side_codes = []
    for side in (LEFT, RIGHT):
        tracker = worker._trackers[side]
        side_codes.append((list(tracker._values.items()), tracker._merged))
    return tuple(side_codes)


def _restore_trackers(worker, code: tuple) -> None:
    for side, (items, merged) in zip((LEFT, RIGHT), code):
        tracker = worker._trackers[side]
        for channel, value in items:
            tracker._values[channel] = value
        tracker._merged = merged


def snapshot_worker(worker, elements_seen: int) -> tuple:
    """Capture one output-collecting worker's full state at a batch boundary.

    ``elements_seen`` is the count of delivered elements (events *and*
    watermarks, in per-seat send order) the worker has consumed; recovery
    replays exactly the input suffix after it.
    """
    join = worker.join
    if worker._outputs is None:
        raise ValueError(
            "only output-collecting workers are checkpointable; a worker "
            "that publishes revisions has peer edges or operator state a "
            "single-worker snapshot cannot capture"
        )
    reverse = join.reverse_maintainer
    return (
        CHECKPOINT_VERSION,
        elements_seen,
        list(worker._outputs),
        list(join.emit_latencies),
        (join.stats.outputs_emitted, join.stats.groups_finalized),
        _encode_trackers(worker),
        encode_maintainer(join.maintainer),
        encode_maintainer(reverse) if reverse is not None else None,
    )


def checkpoint_elements(payload: Optional[tuple]) -> int:
    """The delivered-element count a checkpoint covers (0 for ``None``)."""
    if payload is None:
        return 0
    return payload[1]


def restore_worker(worker, payload: tuple) -> int:
    """Load a :func:`snapshot_worker` payload into a fresh worker.

    Must run before the worker consumes any element.  Returns the
    ``elements_seen`` count the driver's replay skips past.
    """
    (
        version,
        elements_seen,
        outputs,
        emit_latencies,
        (outputs_emitted, groups_finalized),
        tracker_code,
        forward_code,
        reverse_code,
    ) = payload
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version} does not match "
            f"CHECKPOINT_VERSION {CHECKPOINT_VERSION}"
        )
    join = worker.join
    if worker._outputs is None:
        raise ValueError("cannot restore a checkpoint into a non-collecting worker")
    worker._outputs[:] = outputs
    join.emit_latencies[:] = emit_latencies
    join.stats.outputs_emitted = outputs_emitted
    join.stats.groups_finalized = groups_finalized
    _restore_trackers(worker, tracker_code)
    restore_maintainer(join.maintainer, forward_code)
    if reverse_code is not None:
        if join.reverse_maintainer is None:
            raise ValueError("checkpoint has reverse-maintainer state but the join has none")
        restore_maintainer(join.reverse_maintainer, reverse_code)
    return elements_seen
