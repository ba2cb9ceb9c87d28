"""Reverse-window continuous operators (inner / right / full outer).

Equivalence contract of PR 1, extended to the three kinds the mirrored
maintainer enables, plus the carried-across-windows probability computers,
one per maintainer (incremental probabilities, step two).
"""

from __future__ import annotations

import random

import pytest

from repro import ExecutionOptions
from repro.core import tp_full_outer_join, tp_inner_join, tp_right_outer_join
from repro.datasets import ReplayConfig, arrival_order, stream_def
from repro.engine import Catalog
from repro.lineage import ProbabilityComputer, canonical
from repro.stream import (
    StreamQuery,
    StreamSource,
    continuous_join,
    merge_tagged,
)

#: The ``on`` pairs of the θ :func:`make_random_relations` builds.
ON = [("Key", "Key")]

BATCH_JOINS = {
    "inner": tp_inner_join,
    "right_outer": tp_right_outer_join,
    "full_outer": tp_full_outer_join,
}


def finalized_rows(relation_or_tuples) -> set[tuple]:
    return {
        (t.fact, t.start, t.end, str(canonical(t.lineage)))
        for t in relation_or_tuples
    }


def _run_continuous(kind, left, right, theta, disorder, lateness, watermark_every, seed):
    operator = continuous_join(
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


@pytest.mark.parametrize("kind", ["inner", "right_outer", "full_outer"])
@pytest.mark.parametrize("seed", range(8))
def test_reverse_kinds_match_batch(kind, seed, random_relation_factory):
    rng = random.Random(seed * 613 + 7)
    left, right, theta = random_relation_factory(
        seed,
        left_size=rng.randrange(5, 25),
        right_size=rng.randrange(5, 25),
        num_keys=rng.randrange(1, 5),
        time_span=rng.randrange(10, 40),
    )
    disorder = rng.randrange(0, 12)
    lateness = disorder + rng.randrange(0, 4)
    watermark_every = rng.randrange(1, 6)

    outputs, operator = _run_continuous(
        kind, left, right, theta, disorder, lateness, watermark_every, seed
    )
    batch = BATCH_JOINS[kind](left, right, theta, compute_probabilities=False)
    assert finalized_rows(outputs) == finalized_rows(batch)
    assert operator.maintainer.stats.late_positives_dropped == 0
    if operator.reverse_maintainer is not None:
        assert operator.reverse_maintainer.stats.late_positives_dropped == 0


@pytest.mark.parametrize("kind", ["right_outer", "full_outer"])
def test_partitioned_reverse_kinds_match_batch(kind, random_relation_factory):
    left, right, theta = random_relation_factory(42, left_size=25, right_size=25)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=6, seed=4)))
    catalog.register_stream("r", stream_def(right, ReplayConfig(disorder=6, seed=5)))
    batch = BATCH_JOINS[kind](left, right, theta, compute_probabilities=False)
    for partitions in (1, 2, 4):
        query = StreamQuery(
            catalog,
            kind,
            "l",
            "r",
            [("Key", "Key")],
            config=ExecutionOptions(partitions=partitions, micro_batch_size=8),
        )
        result = query.run(merge_seed=7)
        assert finalized_rows(result.relation) == finalized_rows(batch)
        if kind == "full_outer":
            # Full outer records a latency per group of *both* sides.
            assert len(result.emit_latencies) == len(left) + len(right)


@pytest.mark.parametrize("kind", ["anti", "left_outer", "full_outer"])
def test_materialized_probabilities_bitwise_equal_fresh(kind, random_relation_factory):
    """The maintainers' computers, carried across windows, stay bitwise-exact."""
    left, right, theta = random_relation_factory(11, left_size=20, right_size=20)
    events = left.events.merge(right.events)
    operator = continuous_join(
        kind,
        left.schema,
        right.schema,
        [("Key", "Key")],
        events=events,
        materialize_probabilities=True,
    )
    left_elements = StreamSource(arrival_order(left, 5, seed=1), lateness=5, watermark_every=2)
    right_elements = StreamSource(arrival_order(right, 5, seed=2), lateness=5, watermark_every=2)
    outputs = list(operator.run(merge_tagged(left_elements, right_elements, seed=3)))
    assert outputs
    for tp_tuple in outputs:
        fresh = ProbabilityComputer(events).probability(tp_tuple.lineage)
        assert tp_tuple.probability == fresh  # bitwise, not approx


def test_materialized_probabilities_through_stream_query(random_relation_factory):
    left, right, theta = random_relation_factory(12, left_size=18, right_size=18)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=4, seed=1)))
    catalog.register_stream("r", stream_def(right, ReplayConfig(disorder=4, seed=2)))
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(materialize_probabilities=True),
    )
    result = query.run(merge_seed=3)
    events = left.events.merge(right.events)
    assert len(result.relation) > 0
    for tp_tuple in result.relation:
        fresh = ProbabilityComputer(events).probability(tp_tuple.lineage)
        assert tp_tuple.probability == fresh
