"""DataflowGraph validation, schema inference and topology accessors."""

from __future__ import annotations

import pytest

from repro.dataflow import DataflowGraph, DataflowQuery, GraphError, NodeSpec
from repro.stream import LEFT, RIGHT, StreamQuery


NODES = [
    NodeSpec("n1", "anti", "a", "b", (("Key", "Key"),)),
    NodeSpec("n2", "full_outer", "n1", "c", (("Key", "Key"),)),
]


def test_graph_resolves_sources_and_sink(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(1)
    graph = DataflowGraph(catalog, NODES)
    assert graph.source_names == ["a", "b", "c"]
    assert graph.node_names == ["n1", "n2"]
    assert graph.sink == "n2"
    assert graph.consumers_of("n1") == [("n2", LEFT)]
    assert graph.consumers_of("c") == [("n2", RIGHT)]


def test_schema_chains_with_node_name_prefixes(stream_catalog_factory):
    catalog, a, _b, c = stream_catalog_factory(2)
    graph = DataflowGraph(catalog, NODES)
    assert graph.schema_of("n1") == a.schema  # anti join keeps the left schema
    combined = graph.schema_of("n2")
    assert combined.attributes == ("Key", "Serial", "c.Key", "c.Serial")


def test_unknown_input_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(3)
    with pytest.raises(GraphError):
        DataflowGraph(catalog, [NodeSpec("n1", "anti", "a", "nope", ())])


def test_unknown_kind_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(4)
    with pytest.raises(GraphError):
        DataflowGraph(catalog, [NodeSpec("n1", "semi", "a", "b", ())])


def test_unknown_theta_attribute_rejected_at_construction(stream_catalog_factory):
    """Both query classes validate θ when built, not when run."""
    catalog, *_ = stream_catalog_factory(11)
    bad = (("Nope", "Key"),)
    with pytest.raises(GraphError, match="Nope"):
        DataflowQuery(catalog, [NodeSpec("n1", "anti", "a", "b", bad)])
    with pytest.raises(GraphError, match="Nope"):
        StreamQuery(catalog, "anti", "a", "b", bad)


def test_duplicate_node_name_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(5)
    with pytest.raises(GraphError):
        DataflowGraph(
            catalog,
            [
                NodeSpec("n1", "anti", "a", "b", ()),
                NodeSpec("n1", "anti", "a", "c", ()),
            ],
        )


def test_node_name_clashing_with_stream_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(6)
    with pytest.raises(GraphError):
        DataflowGraph(catalog, [NodeSpec("c", "anti", "a", "b", ())])


def test_out_of_order_nodes_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(7)
    with pytest.raises(GraphError):
        DataflowGraph(catalog, list(reversed(NODES)))


def test_empty_graph_rejected(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(8)
    with pytest.raises(GraphError):
        DataflowGraph(catalog, [])


def test_merged_events_cover_all_sources(stream_catalog_factory):
    catalog, a, b, c = stream_catalog_factory(9)
    graph = DataflowGraph(catalog, NODES)
    names = set(graph.merged_events().names())
    for relation in (a, b, c):
        for name in relation.events.names():
            assert name in names


def test_describe_lists_nodes(stream_catalog_factory):
    catalog, *_ = stream_catalog_factory(10)
    text = DataflowGraph(catalog, NODES).describe()
    assert "2 nodes" in text and "sink=n2" in text
    assert "anti(a, b)" in text and "full_outer(n1, c)" in text
