"""Graph executors: inline / threads / processes agree and converge."""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.dataflow import (
    DataflowQuery,
    NodeSpec,
    assert_converged,
    identity_rows,
)
from repro.lineage import ProbabilityComputer

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
    catalog, *_ = stream_catalog_factory(23, disorder=8)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=3)
    assert_converged(result, catalog, TREE)
    stats = result.nodes["n1"].stats
    assert stats.retracts > 0, "early emission over disorder must retract"
    assert result.nodes["n2"].stats.inputs_retracted > 0, (
        "the downstream node must actually consume retractions"
    )


def test_tiny_buffers_backpressure_without_deadlock(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(24, sizes=(40, 40, 30))
    config = ExecutionOptions(
        early_emit=True, buffer_capacity=4, micro_batch_size=2
    )
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


def test_unknown_backend_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(27)
    query = DataflowQuery(catalog, TREE)
    with pytest.raises(ValueError):
        query.run(backend="fibers")
