"""Shared-nothing parallel execution across worker processes.

The temporal-probabilistic window and probability computations are CPU-bound
pure Python, so thread parallelism is GIL-capped at one core.  This package
shards work across *processes* instead, for both batch and continuous TP
queries:

* :mod:`repro.parallel.plan` — hash partitioning on the equi-join key and
  the state-size cost model (open positives × matches) that picks partition
  counts.
* :mod:`repro.parallel.serialize` — compact codecs for tuples, lineages and
  stream elements, plus per-shard event-space restriction, so IPC volume
  scales with shard size.
* :mod:`repro.parallel.pool` — the worker-pool runtime (fork when
  available, inline fallback when processes cannot start).
* :mod:`repro.parallel.batch` — :func:`parallel_tp_join`: any Table II join
  executed shard-wise with an order-stable canonical merge.

Correctness invariant: with an equi-θ, every window of a tuple derives only
from tuples sharing its join key, so key-disjoint shards never interact and
shard outputs merge without reconciliation.
"""

from .batch import (
    BATCH_JOINS,
    ParallelJoinResult,
    canonical_order,
    parallel_tp_join,
    plan_workers,
)
from .plan import (
    DEFAULT_MAX_WORKERS,
    ParallelConfig,
    balanced_key_assignment,
    choose_partitions,
    estimate_join_state,
    partition_pair,
    partition_tuples,
    shardable,
    stable_hash,
)
from .pool import imap_tasks, run_tasks
from .serialize import (
    decode_lineage,
    decode_tagged,
    decode_tuple,
    decode_tuples,
    encode_lineage,
    encode_tagged,
    encode_tuple,
    encode_tuples,
    restricted_probabilities,
)

__all__ = [
    "BATCH_JOINS",
    "DEFAULT_MAX_WORKERS",
    "ParallelConfig",
    "ParallelJoinResult",
    "balanced_key_assignment",
    "canonical_order",
    "choose_partitions",
    "decode_lineage",
    "decode_tagged",
    "decode_tuple",
    "decode_tuples",
    "encode_lineage",
    "encode_tagged",
    "encode_tuple",
    "encode_tuples",
    "estimate_join_state",
    "imap_tasks",
    "parallel_tp_join",
    "partition_pair",
    "partition_tuples",
    "plan_workers",
    "restricted_probabilities",
    "run_tasks",
    "shardable",
    "stable_hash",
]
