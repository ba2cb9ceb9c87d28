"""The state-size cost model that sizes key-partitioned stream stages.

A TP join with an equi-θ decomposes perfectly by join key: every window of a
positive tuple is derived from tuples sharing its key, so the runtime routes
both inputs by the stable hash of the key
(:func:`repro.relation.stable_key_hash`) into partitions whose joins are
mutually independent.

How many partitions a stage gets comes from the state-size cost model: the
work a partition performs is proportional to the positive tuples it holds
open times the θ-matching negative tuples each one meets (``open positives
× matches``).  The planner (``Planner._dataflow_partitions``) feeds the
streams' expected statistics to :func:`estimate_join_state`, and
:func:`choose_partitions` turns the estimate into a worker count, refusing
to fan out work too small to amortise worker start-up and serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Partition-count ceiling applied when a config does not set its own.
DEFAULT_MAX_WORKERS = 4


@dataclass(frozen=True)
class ParallelConfig:
    """Policy knobs of the partition planner for stream-join stages.

    Passed as ``Engine(parallel_config=...)``; without one every stage takes
    ``ExecutionOptions.partitions``.

    Attributes:
        max_workers: hard ceiling on a stage's partition count.
        state_per_worker: target state-size units (open positives × matches)
            per worker; the planner adds workers until partitions fall under
            it.
        min_tuples: stages whose left input expects fewer tuples run on one
            worker — worker start-up and serialization would dominate.
    """

    max_workers: int = DEFAULT_MAX_WORKERS
    state_per_worker: float = 20_000.0
    min_tuples: int = 512

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.state_per_worker <= 0:
            raise ValueError("state_per_worker must be positive")


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
