"""Graph executors: inline / threads / processes agree and converge."""

from __future__ import annotations

from statistics import median_low

import pytest

from repro import ExecutionOptions
from repro.dataflow import (
    DataflowQuery,
    NodeSpec,
    assert_converged,
    identity_rows,
)
from repro.datasets import ReplayConfig, generate_relation, meteo_config, stream_def
from repro.engine import Catalog
from repro.lineage import EventSpace, ProbabilityComputer

TREE = [
    NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
    NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
]


@pytest.mark.parametrize("backend", ["inline", "threads", "processes", "sockets"])
@pytest.mark.parametrize("early", [False, True])
def test_every_backend_converges_to_batch(stream_catalog_factory, backend, early):
    catalog, *_ = stream_catalog_factory(21)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=early))
    result = query.run(merge_seed=5, backend=backend)
    cardinalities = assert_converged(result, catalog, TREE)
    assert cardinalities["n2"] > 0
    assert result.events_processed > 0


def test_backends_agree_tuple_for_tuple(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(22)
    rows = {}
    for backend in ("inline", "threads", "processes", "sockets"):
        query = DataflowQuery(
            catalog, TREE, ExecutionOptions(early_emit=True)
        )
        result = query.run(merge_seed=9, backend=backend)
        rows[backend] = {
            name: identity_rows(node.relation, with_probability=False)
            for name, node in result.nodes.items()
        }
    assert (
        rows["inline"] == rows["threads"] == rows["processes"] == rows["sockets"]
    )


def test_early_emission_retracts_and_still_converges(stream_catalog_factory):
    # Inline: every element is a batch of one, so each change republishes.
    # (A queued transport may take this small input in one micro-batch, and
    # a group publishes once per batch.)
    catalog, *_ = stream_catalog_factory(23, disorder=8)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=3, backend="inline")
    assert_converged(result, catalog, TREE)
    stats = result.nodes["n1"].stats
    assert stats.retracts > 0, "early emission over disorder must retract"
    assert result.nodes["n2"].stats.inputs_retracted > 0, (
        "the downstream node must actually consume retractions"
    )


def test_tiny_buffers_backpressure_without_deadlock(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(24, sizes=(40, 40, 30))
    config = ExecutionOptions(early_emit=True, micro_batch_size=2)
    query = DataflowQuery(catalog, TREE, config)
    result = query.run(merge_seed=1, backend="threads")
    assert_converged(result, catalog, TREE)
    assert result.backpressure_blocks > 0, "tiny buffers must actually block"


def test_materialized_probabilities_are_bitwise_identical(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(25)
    config = ExecutionOptions(early_emit=True, materialize_probabilities=True)
    query = DataflowQuery(catalog, TREE, config)
    result = query.run(merge_seed=2)
    assert_converged(result, catalog, TREE)
    events = query.graph.merged_events()
    checked = 0
    for node in result.nodes.values():
        for tp_tuple in node.relation:
            fresh = ProbabilityComputer(events).probability(tp_tuple.lineage)
            assert tp_tuple.probability == fresh  # bitwise, not approx
            checked += 1
    assert checked > 0


def test_latencies_and_lags_are_recorded_per_group(stream_catalog_factory):
    catalog, a, _b, c = stream_catalog_factory(26)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=4)
    n2 = result.nodes["n2"]
    # right_outer records one latency per forward group (from n1's output)
    # and one per reverse group (c's tuples).
    assert len(n2.emit_latencies) == len(n2.emit_event_lags)
    assert len(n2.emit_latencies) >= len(c)
    assert all(latency >= 0.0 for latency in n2.emit_latencies)


@pytest.mark.parametrize("disorder", [8, 16])
def test_early_emission_publishes_inside_the_watermark_lag(disorder):
    """What early emission buys, in event time: a group is first published
    before the input frontier has run ``disorder`` (the source lateness, so
    the watermark lag) past its end, where watermark-only emission cannot
    publish sooner than that — and it pays for it in retractions."""
    tree = [
        NodeSpec("n1", "left_outer", "r", "s", (("Metric", "Metric"),)),
        NodeSpec("n2", "right_outer", "n1", "t", (("Metric", "Metric"),)),
    ]
    events = EventSpace()
    catalog = Catalog()
    for offset, name in enumerate(("r", "s", "t")):
        relation = generate_relation(meteo_config(200, seed=offset), events, name=name)
        catalog.register_stream(
            name, stream_def(relation, ReplayConfig(disorder=disorder, seed=offset))
        )

    def run(early):
        # Inline: one element is carried through the whole tree before the
        # next is read, so the frontier a lag is measured against is the same
        # on every run.
        query = DataflowQuery(catalog, tree, ExecutionOptions(early_emit=early))
        result = query.run(merge_seed=0, backend="inline")
        assert_converged(result, catalog, tree)
        lags = [lag for node in result.nodes.values() for lag in node.emit_event_lags]
        retracts = sum(node.stats.retracts for node in result.nodes.values())
        return median_low(lags), retracts

    early_lag, early_retracts = run(early=True)
    settled_lag, _ = run(early=False)
    assert early_lag < disorder
    assert early_retracts > 0, "nothing was provisional"
    assert settled_lag >= disorder


def test_unknown_backend_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(27)
    query = DataflowQuery(catalog, TREE)
    with pytest.raises(ValueError):
        query.run(backend="fibers")
