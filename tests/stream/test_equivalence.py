"""Property-style equivalence: continuous operators vs. the batch joins.

The subsystem's core guarantee: once every watermark closes, the finalized
output set of a continuous join equals the batch join's output exactly —
for any disorder within the lateness bound, any watermark cadence, any
cross-source interleaving and any partition count.
"""

from __future__ import annotations

import random

import pytest

from repro import ExecutionOptions
from repro.core import BATCH_JOINS, tp_left_outer_join
from repro.datasets import ReplayConfig, arrival_order, stream_def
from repro.engine import Catalog
from repro.lineage import canonical
from repro.relation import TPRelation
from repro.stream import (
    ContinuousJoin,
    StreamQuery,
    StreamSource,
    merge_tagged,
)


def finalized_rows(relation_or_tuples) -> set[tuple]:
    """Order-insensitive canonical rows (fact, interval, canonical lineage)."""
    return {
        (t.fact, t.start, t.end, str(canonical(t.lineage)))
        for t in relation_or_tuples
    }


#: The ``on`` pairs of the θ :func:`make_random_relations` builds.
ON = [("Key", "Key")]


def _run_continuous(kind, left, right, theta, disorder, lateness, watermark_every, seed):
    operator = ContinuousJoin(
        kind, left.schema, right.schema, ON, left_name=left.name, right_name=right.name
    )
    assert operator.theta == theta
    left_elements = StreamSource(
        arrival_order(left, disorder, seed=seed),
        lateness=lateness,
        watermark_every=watermark_every,
    )
    right_elements = StreamSource(
        arrival_order(right, disorder, seed=seed + 1),
        lateness=lateness,
        watermark_every=watermark_every,
    )
    merged = merge_tagged(left_elements, right_elements, seed=seed)
    return list(operator.run(merged)), operator


@pytest.mark.parametrize("kind", ["anti", "left_outer"])
@pytest.mark.parametrize("seed", range(12))
def test_random_disorder_matches_batch(kind, seed, random_relation_factory):
    """Randomized configurations: output sets must match the batch join exactly."""
    rng = random.Random(seed * 977 + 11)
    left, right, theta = random_relation_factory(
        seed,
        left_size=rng.randrange(5, 30),
        right_size=rng.randrange(5, 30),
        num_keys=rng.randrange(1, 5),
        time_span=rng.randrange(10, 40),
    )
    disorder = rng.randrange(0, 15)
    lateness = disorder + rng.randrange(0, 5)  # at least the disorder: lossless
    watermark_every = rng.randrange(1, 6)

    outputs, operator = _run_continuous(
        kind, left, right, theta, disorder, lateness, watermark_every, seed
    )
    batch = BATCH_JOINS[kind](left, right, theta, compute_probabilities=False)
    assert finalized_rows(outputs) == finalized_rows(batch)
    assert operator.maintainer.stats.late_positives_dropped == 0
    assert operator.maintainer.stats.late_negatives_dropped == 0
    # Every latency sample corresponds to one finalized positive tuple.
    assert len(operator.emit_latencies) == len(left)


@pytest.mark.parametrize("seed", range(6))
def test_parallel_partitions_match_batch(seed, random_relation_factory):
    """Hash-partitioned parallel runs produce the same finalized set."""
    left, right, theta = random_relation_factory(seed + 100, left_size=25, right_size=25)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=6, seed=seed)))
    catalog.register_stream("r", stream_def(right, ReplayConfig(disorder=6, seed=seed + 1)))
    batch = tp_left_outer_join(left, right, theta, compute_probabilities=False)
    for partitions in (1, 2, 4):
        query = StreamQuery(
            catalog,
            "left_outer",
            "l",
            "r",
            [("Key", "Key")],
            config=ExecutionOptions(partitions=partitions, micro_batch_size=8),
        )
        result = query.run(merge_seed=seed)
        assert finalized_rows(result.relation) == finalized_rows(batch)
        assert result.partitions == partitions


def test_probabilities_match_batch_after_finalization(random_relation_factory):
    """Lineages survive streaming intact: probabilities agree with batch."""
    left, right, theta = random_relation_factory(7, left_size=15, right_size=15)
    outputs, operator = _run_continuous("left_outer", left, right, theta, 5, 5, 2, 7)
    events = left.events.merge(right.events)
    streamed = TPRelation(
        operator.output_schema(), outputs, events, check_constraint=False
    ).with_probabilities()
    batch = tp_left_outer_join(left, right, theta, compute_probabilities=True)
    batch_probabilities = {
        (t.fact, t.start, t.end): t.probability for t in batch
    }
    for t in streamed:
        assert t.probability == pytest.approx(
            batch_probabilities[(t.fact, t.start, t.end)]
        )


def test_insufficient_lateness_drops_late_events_without_crashing(
    random_relation_factory,
):
    """Disorder beyond the lateness bound evicts events; the run still closes."""
    left, right, theta = random_relation_factory(3, left_size=40, right_size=40)
    operator = ContinuousJoin("anti", left.schema, right.schema, ON)
    left_source = StreamSource(
        arrival_order(left, disorder=25, seed=1), lateness=0, watermark_every=1
    )
    right_source = StreamSource(
        arrival_order(right, disorder=25, seed=2), lateness=0, watermark_every=1
    )
    outputs = list(operator.run(merge_tagged(left_source, right_source, seed=3)))
    assert left_source.stats.late_evicted + right_source.stats.late_evicted > 0
    # Output corresponds to the delivered subset; it must still be well formed.
    delivered = left_source.stats.events_emitted
    assert operator.maintainer.stats.groups_finalized == delivered
    assert len(operator.emit_latencies) == delivered
    assert all(t.interval.duration > 0 for t in outputs)
