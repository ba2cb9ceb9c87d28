"""Batch TP joins on K processes, and the canonical output order.

:func:`parallel_tp_join` evaluates any of the paper's TP joins (Table II).
One worker runs the serial batch join.  K workers replay both relations in
event-time order into a K-partition :class:`~repro.stream.StreamQuery` on
the sockets transport: the runtime routes every tuple by the stable hash of
its join key, each seat runs the unchanged window pipeline (overlap join →
LAWAU → LAWAN → lineage → probability) on its key slice, and the settled
output is returned in the canonical order, so the result is identical
tuple-for-tuple to the serial join for any partition count.

Correctness rests on the shared-nothing property of equi-θ TP joins: every
window of a tuple is derived exclusively from tuples with the same join key,
so key-disjoint partitions never interact.  A join without an equality
condition has no key to route by and runs on one worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from typing import List, Sequence

from ..core.joins import BATCH_JOINS
from ..relation import TPRelation, TPTuple, theta_or_true

#: Elements per micro-batch, and events per source watermark, of a K-worker
#: run.  A batch replay has no emit latency to keep, so one watermark per
#: micro-batch cuts the per-frame and finalisation-sweep cost: at WebKit
#: 64000 ``left_outer`` on two seats of a 2-CPU host a call took a median
#: 7.4 s, against 9.5 s with the streaming defaults (64 and 8).
_REPLAY_BATCH = 1024


@dataclass(frozen=True)
class ParallelJoinResult:
    """A parallel join's output relation plus run metadata."""

    relation: TPRelation
    workers: int
    elapsed_seconds: float


def canonical_order(tuples: Sequence[TPTuple]) -> List[TPTuple]:
    """Sort tuples into the canonical deterministic output order.

    The order is :meth:`TPTuple.key`'s — total over (fact, interval, lineage
    text) — so any two runs producing the same tuple *set* produce the same
    tuple *sequence*: the order-stable merge contract of the subsystem.  A
    lineage is rendered only for tuples that tie on fact and interval; both
    sorts are stable, so the result is ``sorted(tuples, key=TPTuple.key)``.
    """
    prefixes = [tp_tuple.key_prefix() for tp_tuple in tuples]
    order = sorted(range(len(prefixes)), key=prefixes.__getitem__)
    ordered = [tuples[index] for index in order]
    first = 0
    for _tied, run in groupby(order, key=prefixes.__getitem__):
        last = first + len(list(run))
        if last - first > 1:
            ordered[first:last] = sorted(ordered[first:last], key=TPTuple.key)
        first = last
    return ordered


def parallel_tp_join(
    kind: str,
    left: TPRelation,
    right: TPRelation,
    on: Sequence[tuple[str, str]] = (),
    workers: int = 1,
    compute_probabilities: bool = True,
) -> ParallelJoinResult:
    """Evaluate a TP join on ``workers`` key-partitioned processes.

    Args:
        kind: one of ``anti`` / ``left_outer`` / ``right_outer`` /
            ``full_outer`` / ``inner``.
        left, right: the input relations (``left`` is the positive relation
            for anti and left outer joins, as in the batch operators).
        on: ``(left_attr, right_attr)`` equality pairs; an empty θ means a
            pure temporal join, which has no key and runs on one worker.
        workers: the partition count; ``1`` runs the serial batch join, more
            run a ``StreamQuery`` with that many socket seats.
        compute_probabilities: materialise output probabilities (inside the
            seats when ``workers > 1``).

    Returns:
        :class:`ParallelJoinResult` whose relation holds the canonical-order
        output over the merged event space of both inputs.
    """
    if kind not in BATCH_JOINS:
        raise ValueError(f"unknown join kind {kind!r}; supported: {sorted(BATCH_JOINS)}")
    if workers <= 0:
        raise ValueError("workers must be positive")
    started = time.perf_counter()
    if workers == 1:
        theta = theta_or_true(left.schema, right.schema, tuple(on))
        result = BATCH_JOINS[kind](
            left, right, theta, compute_probabilities=compute_probabilities
        )
    else:
        from ..datasets import ReplayConfig, stream_def
        from ..engine import Catalog
        from ..options import ExecutionOptions
        from ..stream import StreamQuery

        # The right name prefixes clashing output attributes, as in the
        # serial join; the left name only has to differ from it.
        right_name = right.name or "s"
        left_name = "r" if right_name != "r" else "l"
        catalog = Catalog()
        replay = ReplayConfig(watermark_every=_REPLAY_BATCH)
        catalog.register_stream(left_name, stream_def(left, replay, name=left_name))
        catalog.register_stream(right_name, stream_def(right, replay, name=right_name))
        options = ExecutionOptions(
            partitions=workers,
            transport="sockets",
            micro_batch_size=_REPLAY_BATCH,
            materialize_probabilities=compute_probabilities,
        )
        query = StreamQuery(catalog, kind, left_name, right_name, on, options)
        workers = query.effective_partitions
        result = query.run().relation
    relation = TPRelation(
        result.schema,
        canonical_order(result.tuples),
        result.events,
        name=result.name,
        check_constraint=False,
    )
    return ParallelJoinResult(relation, workers, time.perf_counter() - started)
