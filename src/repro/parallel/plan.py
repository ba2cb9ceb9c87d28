"""Shard planning: hash partitioning and the state-size cost model.

A TP join with an equi-θ decomposes perfectly by join key: every window of a
positive tuple is derived from tuples sharing its key, so partitioning both
inputs by the same hash of the key yields shards whose joins are mutually
independent — the shared-nothing property the process workers rely on.
Watermarks are the one broadcast element: they carry no key and advance
event time in *every* shard.

Partition counts come from the state-size cost model the ROADMAP names: the
work a shard performs is proportional to the positive tuples it holds open
times the θ-matching negative tuples each one meets (``open positives ×
matches``).  :func:`choose_partitions` turns that estimate into a worker
count, refusing to shard work too small to amortise process start-up and
serialization.

Hashing uses :func:`stable_hash` (CRC-32 over the key's repr), not Python's
built-in ``hash``: the built-in is salted per process (``PYTHONHASHSEED``),
and shard assignments must be reproducible across runs and identical between
the router and any re-run that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Sequence, TypeVar

from ..relation import (
    EquiJoinCondition,
    ThetaCondition,
    TPTuple,
    TrueCondition,
    stable_key_hash,
)

T = TypeVar("T")

#: Partition-count ceiling applied when a config does not set its own.
DEFAULT_MAX_WORKERS = 4


@dataclass(frozen=True)
class ParallelConfig:
    """Policy knobs of the shard planner.

    Attributes:
        max_workers: hard ceiling on the partition count.
        state_per_worker: target state-size units (open positives × matches)
            per worker; the planner adds workers until shards fall under it.
        min_tuples: inputs smaller than this (left side) always run serially
            — process start-up and shard serialization would dominate.
    """

    max_workers: int = DEFAULT_MAX_WORKERS
    state_per_worker: float = 20_000.0
    min_tuples: int = 512

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.state_per_worker <= 0:
            raise ValueError("state_per_worker must be positive")


#: The shared stable key hash (see :func:`repro.relation.stable_key_hash`);
#: re-exported here because shard routing is where it matters most.
stable_hash = stable_key_hash


def estimate_join_state(
    left_cardinality: int, right_cardinality: int, right_distinct_keys: int
) -> float:
    """The ROADMAP cost model: open positives × matches per positive.

    ``matches`` is estimated from the negative side's key selectivity — a
    uniform right relation with ``d`` distinct keys contributes ``|s| / d``
    matches to each open positive.
    """
    matches = right_cardinality / max(1, right_distinct_keys)
    return float(left_cardinality) * max(1.0, matches)


def choose_partitions(
    state_estimate: float,
    left_cardinality: int,
    config: ParallelConfig | None = None,
    distinct_keys: int | None = None,
) -> int:
    """Pick a partition count for an estimated join state size.

    Returns 1 (serial) when the input is too small to shard profitably;
    otherwise enough workers to bring per-shard state under the target,
    capped at ``max_workers`` — and at ``distinct_keys`` when known, since
    one key can never be split across shards (extra workers would fork,
    serialize and idle for a guaranteed slowdown).
    """
    config = config or ParallelConfig()
    if left_cardinality < config.min_tuples:
        return 1
    wanted = int(state_estimate // config.state_per_worker) + 1
    if distinct_keys is not None:
        wanted = min(wanted, max(1, distinct_keys))
    return max(1, min(config.max_workers, wanted))


def partition_tuples(
    tuples: Sequence[TPTuple],
    key_of: Callable[[TPTuple], Hashable],
    partitions: int,
) -> List[List[TPTuple]]:
    """Split tuples into ``partitions`` shards by stable key hash.

    Relative order within each shard preserves the input order, so shard
    workers see the same arrival order a serial run would.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    shards: List[List[TPTuple]] = [[] for _ in range(partitions)]
    for tp_tuple in tuples:
        shards[stable_hash(key_of(tp_tuple)) % partitions].append(tp_tuple)
    return shards


def balanced_key_assignment(
    left: Sequence[TPTuple],
    right: Sequence[TPTuple],
    theta: ThetaCondition,
    partitions: int,
) -> dict:
    """Assign join keys to shards by balancing estimated per-key load.

    Pure hash partitioning is the only choice for unbounded streams (the
    key population is unknown up front), but a batch join sees both inputs
    whole — so keys can be weighed (positives × matches, the same state
    model the planner uses) and greedily bin-packed onto the least-loaded
    shard.  With few distinct keys this beats hashing badly: the slowest
    shard, which bounds the parallel speedup, shrinks toward the mean.

    Deterministic: keys are ordered by (weight desc, stable hash) and ties
    in shard load break toward the lowest shard index.
    """
    left_counts: dict = {}
    for tp_tuple in left:
        key = theta.left_key(tp_tuple)
        left_counts[key] = left_counts.get(key, 0) + 1
    right_counts: dict = {}
    for tp_tuple in right:
        key = theta.right_key(tp_tuple)
        right_counts[key] = right_counts.get(key, 0) + 1
    weights = {
        key: left_counts.get(key, 0) * max(1, right_counts.get(key, 0))
        + right_counts.get(key, 0)
        for key in {*left_counts, *right_counts}
    }
    ordered = sorted(weights, key=lambda key: (-weights[key], stable_hash(key)))
    loads = [0] * partitions
    assignment: dict = {}
    for key in ordered:
        index = loads.index(min(loads))
        assignment[key] = index
        loads[index] += weights[key]
    return assignment


def partition_pair(
    left: Sequence[TPTuple],
    right: Sequence[TPTuple],
    theta: ThetaCondition,
    partitions: int,
    balance: bool = True,
) -> tuple[List[List[TPTuple]], List[List[TPTuple]]]:
    """Co-partition both join inputs on the equi-join key.

    With ``balance=True`` (the default) keys are spread by the greedy
    load-balanced assignment of :func:`balanced_key_assignment`; with
    ``balance=False`` the stable hash decides, matching the stream router.
    Either way all tuples of one key land in one shard — the shared-nothing
    invariant.

    Raises:
        ValueError: if θ is not an equi-join (cannot be key-partitioned) —
            callers are expected to fall back to serial execution first.
    """
    if not theta.is_equi:
        raise ValueError("only equi-join conditions can be hash-partitioned")
    if balance:
        assignment = balanced_key_assignment(left, right, theta, partitions)
        left_shards: List[List[TPTuple]] = [[] for _ in range(partitions)]
        right_shards: List[List[TPTuple]] = [[] for _ in range(partitions)]
        for tp_tuple in left:
            left_shards[assignment[theta.left_key(tp_tuple)]].append(tp_tuple)
        for tp_tuple in right:
            right_shards[assignment[theta.right_key(tp_tuple)]].append(tp_tuple)
        return left_shards, right_shards
    return (
        partition_tuples(left, theta.left_key, partitions),
        partition_tuples(right, theta.right_key, partitions),
    )


def shardable(theta: ThetaCondition) -> bool:
    """Whether θ admits key partitioning into more than one shard.

    The always-true condition is formally equi (key ``()``) but every tuple
    lands in the same shard, so sharding it buys nothing; the same holds
    for an equi condition with no attribute pairs.
    """
    if not theta.is_equi:
        return False
    if isinstance(theta, TrueCondition):
        return False
    if isinstance(theta, EquiJoinCondition):
        return bool(theta.pairs)
    # Other equi conditions (e.g. swapped wrappers) are assumed to key on
    # real attributes.
    return True
