"""Partitioned dataflow stages: routing, watermarks, determinism.

The partition axis must be *invisible* in the settled output: for any
partition degree and backend, the same graph over the same replays settles
to the identical canonical tuple sequence with bitwise-equal probabilities.
These tests pin that, plus the two rules the axis is built from — stable
key routing and the min-over-partitions stage watermark — through
:func:`~repro.dataflow.run_graph`.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionOptions
from repro.dataflow import (
    ChannelWatermarks,
    DataflowGraph,
    DataflowQuery,
    GraphError,
    NodeSpec,
    Revision,
    RevisionKind,
    assert_converged,
    identity_rows,
    run_graph,
)
from repro.dataflow.compile import output_watermarks
from repro.relation import stable_key_hash
from repro.stream import Watermark

from tests.dataflow.conftest import make_stream_catalog

PARTITIONED_TREE = [
    NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),), partitions=2),
    NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),), partitions=3),
]


# --------------------------------------------------------------------------- #
# graph validation
# --------------------------------------------------------------------------- #
def test_partition_degree_must_be_positive(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(1)
    with pytest.raises(GraphError, match="partitions must be at least 1"):
        DataflowGraph(
            catalog,
            [NodeSpec("n1", "anti", "a", "b", (("Key", "Key"),), partitions=0)],
        )


def test_partitioning_requires_an_equi_key(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(1)
    with pytest.raises(GraphError, match="needs an equi-join condition"):
        DataflowGraph(catalog, [NodeSpec("n1", "anti", "a", "b", (), partitions=2)])


def test_partition_counts_accessors(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(1)
    graph = DataflowGraph(catalog, PARTITIONED_TREE)
    assert graph.partition_counts == [2, 3]
    assert graph.partitions_of("n1") == 2
    assert graph.partitions_of("a") == 1  # sources are never partitioned
    with pytest.raises(GraphError):
        graph.partitions_of("nope")


# --------------------------------------------------------------------------- #
# key routing
# --------------------------------------------------------------------------- #
def test_routing_is_stable_and_key_consistent(stream_catalog_factory):
    """Every revision of one key — emits, refines and the retractions that
    must unwind them — reaches the one consumer partition its key hashes
    to: what each partition of ``n2`` ingested is exactly its slice of
    ``n1``'s revision stream."""
    catalog, *_ = stream_catalog_factory(23, disorder=8)
    tree = [
        NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "left_outer", "n1", "c", (("Key", "Key"),), partitions=3),
    ]
    graph = DataflowGraph(catalog, tree)
    published: list = []
    consumers: dict = {}
    run_graph(
        graph,
        ExecutionOptions(early_emit=True),
        merge_seed=3,
        taps={"n1": lambda _channel, elements: published.extend(elements)},
        probes={"n2": lambda channel, join: consumers.__setitem__(channel[2], join)},
    )
    adds, retracts = [0, 0, 0], [0, 0, 0]
    for element in published:
        if isinstance(element, Revision):
            partition = stable_key_hash((element.tuple.fact[0],)) % 3
            counts = retracts if element.kind is RevisionKind.RETRACT else adds
            counts[partition] += 1
    assert sum(retracts) > 0, "early emission over disorder must retract"
    for partition, join in consumers.items():
        assert join.maintainer.stats.positives_in == adds[partition]
        assert join.stats.inputs_retracted == retracts[partition]


# --------------------------------------------------------------------------- #
# stage watermark = min over partitions
# --------------------------------------------------------------------------- #
def test_a_tap_reads_the_stage_watermark_as_the_min_over_partitions(
    stream_catalog_factory,
):
    catalog, *_ = stream_catalog_factory(7, sizes=(30, 30, 5))
    graph = DataflowGraph(
        catalog, [NodeSpec("n", "left_outer", "a", "b", (("Key", "Key"),), partitions=3)]
    )
    tracker = output_watermarks(graph, "n")
    latest = {partition: -math.inf for partition in range(3)}
    merged: list = []
    behind = []

    def tap(channel, elements) -> None:
        for element in elements:
            if isinstance(element, Watermark):
                latest[channel[2]] = element.value
                stage = tracker.update(channel, element.value)
                if stage is not None:
                    assert stage == min(latest.values())
                    merged.append(stage)
                    behind.append(stage < max(latest.values()))

    run_graph(graph, ExecutionOptions(), merge_seed=1, taps={"n": tap})
    assert merged == sorted(set(merged)) and merged[-1] == math.inf
    assert any(behind), "no partition ever ran ahead of the stage"


def test_channel_watermarks_merge_min_and_ignore_regressions():
    tracker = ChannelWatermarks(["p0", "p1"])
    assert tracker.update("p0", 10.0) is None  # p1 still at -inf
    assert tracker.update("p1", 4.0) == 4.0
    assert tracker.merged == 4.0
    assert tracker.update("p1", 3.0) is None  # regressions are ignored
    assert tracker.update("p1", 8.0) == 8.0
    assert tracker.update("p0", math.inf) is None  # min still held by p1
    assert tracker.update("p1", math.inf) == math.inf


# --------------------------------------------------------------------------- #
# settled-output determinism across degrees and backends
# --------------------------------------------------------------------------- #
def _settled_rows(catalog, tree, backend: str, merge_seed: int):
    query = DataflowQuery(catalog, tree, ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=merge_seed, backend=backend)
    assert_converged(result, catalog, tree)
    return {
        spec.name: identity_rows(result.nodes[spec.name].relation.with_probabilities())
        for spec in tree
    }


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    disorder=st.integers(min_value=0, max_value=10),
    merge_seed=st.integers(min_value=0, max_value=100),
    backend=st.sampled_from(["inline", "threads", "processes", "sockets"]),
)
def test_partitioned_routing_is_deterministic_across_degrees(
    seed, disorder, merge_seed, backend
):
    """K ∈ {1, 2, 4} settle to the identical rows, probabilities bitwise."""
    reference = None
    for degree in (1, 2, 4):
        catalog, *_ = make_stream_catalog(seed, sizes=(14, 14, 10), disorder=disorder)
        tree = [
            NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),), partitions=degree),
            NodeSpec(
                "n2", "full_outer", "n1", "c", (("Key", "Key"),), partitions=degree
            ),
        ]
        rows = _settled_rows(catalog, tree, backend, merge_seed)
        if reference is None:
            reference = rows
        else:
            assert rows == reference


def test_inline_backend_supports_partitioned_graphs(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(3, sizes=(25, 25, 15), disorder=6)
    query = DataflowQuery(catalog, PARTITIONED_TREE, ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=9, backend="inline")
    assert result.backend == "inline"
    assert_converged(result, catalog, PARTITIONED_TREE)


def test_partitioned_stats_merge_across_partitions(stream_catalog_factory):
    """Partitioned and serial runs agree on the aggregate emit counters."""
    serial_tree = [
        NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
    ]
    catalog, *_ = stream_catalog_factory(11, sizes=(20, 20, 12), disorder=4)
    serial = DataflowQuery(catalog, serial_tree, ExecutionOptions()).run(merge_seed=2)
    catalog, *_ = stream_catalog_factory(11, sizes=(20, 20, 12), disorder=4)
    partitioned = DataflowQuery(
        catalog, PARTITIONED_TREE, ExecutionOptions()
    ).run(merge_seed=2)
    for name in ("n1", "n2"):
        assert (
            partitioned.nodes[name].stats.emits == serial.nodes[name].stats.emits
        )
        assert (
            partitioned.nodes[name].stats.groups_settled
            == serial.nodes[name].stats.groups_settled
        )
