"""Shared-nothing parallel execution of batch TP set operations.

:func:`parallel_tp_join` evaluates any of the paper's TP joins (Table II) by

1. **planning** — choosing a partition count from the state-size cost model
   (or honouring an explicit one) and hash-partitioning both inputs on the
   equi-join key (:mod:`repro.parallel.plan`);
2. **executing** — shipping each shard, compactly serialized with only the
   slice of the event space its lineages mention, to a worker process that
   runs the unchanged window pipeline (overlap join → LAWAU → LAWAN →
   lineage → probability) on its shard alone (:mod:`repro.parallel.pool`);
3. **merging** — decoding shard outputs and producing them in the canonical
   deterministic order, so the result is identical tuple-for-tuple across
   any partition count, including the serial fallback.

Correctness rests on the shared-nothing property of equi-θ TP joins: every
window of a tuple is derived exclusively from tuples with the same join key,
so key-disjoint shards never interact.  Non-equi conditions (and the
always-true θ, whose single key defeats partitioning) run serially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence

from ..core.joins import BATCH_JOINS, join_output_schema
from ..relation import Schema, TPRelation, TPTuple, theta_or_true
from .plan import (
    ParallelConfig,
    choose_partitions,
    estimate_join_state,
    partition_pair,
    shardable,
)
from .pool import imap_tasks
from .serialize import (
    decode_tuples,
    encode_tuples,
    events_from_probabilities,
    restricted_probabilities,
)

@dataclass(frozen=True)
class ParallelJoinResult:
    """A parallel join's output relation plus run metadata."""

    relation: TPRelation
    workers: int
    shard_input_sizes: tuple[tuple[int, int], ...]
    shard_output_sizes: tuple[int, ...]
    elapsed_seconds: float

    @property
    def ran_parallel(self) -> bool:
        """Whether the run actually fanned out to more than one shard."""
        return self.workers > 1


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


def _shard_worker(task: tuple) -> List[tuple]:
    """Execute one shard's join in a worker process (module-level: picklable)."""
    (
        kind,
        left_attributes,
        right_attributes,
        left_name,
        right_name,
        on,
        left_codes,
        right_codes,
        probabilities,
        compute_probabilities,
    ) = task
    events = events_from_probabilities(probabilities)
    left = TPRelation(
        Schema(tuple(left_attributes)),
        decode_tuples(left_codes),
        events,
        name=left_name,
        check_constraint=False,
    )
    right = TPRelation(
        Schema(tuple(right_attributes)),
        decode_tuples(right_codes),
        events,
        name=right_name,
        check_constraint=False,
    )
    theta = theta_or_true(left.schema, right.schema, on)
    result = BATCH_JOINS[kind](
        left, right, theta, compute_probabilities=compute_probabilities
    )
    return encode_tuples(result)


def plan_workers(
    kind: str,
    left: TPRelation,
    right: TPRelation,
    on: Sequence[tuple[str, str]],
    config: ParallelConfig | None = None,
) -> int:
    """Choose the partition count for a join via the state-size cost model."""
    theta = theta_or_true(left.schema, right.schema, on)
    if not shardable(theta):
        return 1
    key_attribute = on[0][1]
    distinct = len(set(right.attribute_values(key_attribute))) if len(right) else 1
    state = estimate_join_state(len(left), len(right), distinct)
    return choose_partitions(state, len(left), config, distinct_keys=distinct)


def parallel_tp_join(
    kind: str,
    left: TPRelation,
    right: TPRelation,
    on: Sequence[tuple[str, str]] = (),
    workers: Optional[int] = None,
    config: ParallelConfig | None = None,
    compute_probabilities: bool = True,
) -> ParallelJoinResult:
    """Evaluate a TP join across shared-nothing worker processes.

    Args:
        kind: one of ``anti`` / ``left_outer`` / ``right_outer`` /
            ``full_outer`` / ``inner``.
        left, right: the input relations (``left`` is the positive relation
            for anti and left outer joins, as in the batch operators).
        on: ``(left_attr, right_attr)`` equality pairs; an empty θ means a
            pure temporal join, which cannot be sharded and runs serially.
        workers: explicit partition count; ``None`` lets the state-size
            cost model decide (see :func:`plan_workers`).
        config: cost-model knobs used when ``workers`` is ``None``.
        compute_probabilities: materialise output probabilities inside the
            workers (the CPU-bound part that scales with cores).

    Returns:
        :class:`ParallelJoinResult` whose relation holds the canonical-order
        output over the merged event space of both inputs.
    """
    if kind not in BATCH_JOINS:
        raise ValueError(f"unknown join kind {kind!r}; supported: {sorted(BATCH_JOINS)}")
    theta = theta_or_true(left.schema, right.schema, tuple(on))
    if workers is None:
        workers = plan_workers(kind, left, right, tuple(on), config)
    if workers <= 0:
        raise ValueError("workers must be positive")
    if workers > 1 and not shardable(theta):
        workers = 1

    started = time.perf_counter()
    if workers == 1:
        serial = BATCH_JOINS[kind](
            left, right, theta, compute_probabilities=compute_probabilities
        )
        relation = TPRelation(
            serial.schema,
            canonical_order(serial.tuples),
            serial.events,
            name=serial.name,
            check_constraint=False,
        )
        return ParallelJoinResult(
            relation=relation,
            workers=1,
            shard_input_sizes=((len(left), len(right)),),
            shard_output_sizes=(len(relation),),
            elapsed_seconds=time.perf_counter() - started,
        )

    left_shards, right_shards = partition_pair(
        left.tuples, right.tuples, theta, workers
    )
    events = left.events.merge(right.events)
    left_name = left.name or "r"
    right_name = right.name or "s"
    tasks = []
    for left_shard, right_shard in zip(left_shards, right_shards):
        tasks.append(
            (
                kind,
                left.schema.attributes,
                right.schema.attributes,
                left_name,
                right_name,
                tuple(on),
                encode_tuples(left_shard),
                encode_tuples(right_shard),
                restricted_probabilities(events, [*left_shard, *right_shard]),
                compute_probabilities,
            )
        )
    # imap (not map) so each shard's output is decoded while later shards
    # are still computing — the decode cost hides behind worker compute.
    merged: List[TPTuple] = []
    shard_output_sizes: List[int] = []
    for codes in imap_tasks(_shard_worker, tasks, workers):
        shard_output_sizes.append(len(codes))
        merged.extend(decode_tuples(codes))
    relation = TPRelation(
        join_output_schema(kind, left.schema, right.schema, right_name),
        canonical_order(merged),
        events,
        name=f"{left_name} {kind} {right_name} [parallel n={workers}]",
        check_constraint=False,
    )
    return ParallelJoinResult(
        relation=relation,
        workers=workers,
        shard_input_sizes=tuple(
            (len(ls), len(rs)) for ls, rs in zip(left_shards, right_shards)
        ),
        shard_output_sizes=tuple(shard_output_sizes),
        elapsed_seconds=time.perf_counter() - started,
    )
