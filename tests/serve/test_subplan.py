"""Structural hashing and reference counting of shared subplans."""

from __future__ import annotations

import pytest

from repro.dataflow import DataflowGraph, NodeSpec
from repro.serve import SubplanRegistry, graph_structural_keys

from tests.serve.conftest import make_stream_catalog

ON = (("Key", "Key"),)


def graph_of(catalog, *nodes: NodeSpec) -> DataflowGraph:
    return DataflowGraph(catalog, list(nodes))


def structural_key(graph: DataflowGraph, name: str):
    return graph_structural_keys(graph)[name]


def refcount_of(registry: SubplanRegistry, canonical_name: str) -> int:
    """A canonical subplan's reference count, 0 when it holds no entry."""
    counts = {entry.name: entry.refcount for entry in registry._by_key.values()}
    return counts.get(canonical_name, 0)


def test_structural_key_ignores_node_names():
    catalog = make_stream_catalog(seed=3)
    one = graph_of(catalog, NodeSpec("j1", "inner", "a", "b", ON))
    two = graph_of(catalog, NodeSpec("totally_else", "inner", "a", "b", ON))
    assert structural_key(one, "j1") == structural_key(two, "totally_else")


def test_structural_key_distinguishes_kind_theta_partitions():
    catalog = make_stream_catalog(seed=3)
    base = structural_key(
        graph_of(catalog, NodeSpec("j", "inner", "a", "b", ON)), "j"
    )
    for variant in (
        NodeSpec("j", "left_outer", "a", "b", ON),
        NodeSpec("j", "inner", "a", "c", ON),
        NodeSpec("j", "inner", "a", "b", (("Key", "Key"), ("Serial", "Serial"))),
        NodeSpec("j", "inner", "a", "b", ON, partitions=2),
    ):
        assert structural_key(graph_of(catalog, variant), "j") != base


def test_structural_key_of_sources_and_unknown_names():
    catalog = make_stream_catalog(seed=3)
    graph = graph_of(catalog, NodeSpec("j", "inner", "a", "b", ON))
    assert structural_key(graph, "j")[2:4] == (("stream", "a"), ("stream", "b"))
    assert set(graph_structural_keys(graph)) == {"j"}  # sources key only inside nodes
    with pytest.raises(KeyError):
        structural_key(graph, "nope")


def test_chained_keys_embed_producer_keys():
    catalog = make_stream_catalog(seed=3)
    graph = graph_of(
        catalog,
        NodeSpec("j1", "inner", "a", "b", ON),
        NodeSpec("j2", "left_outer", "j1", "c", ON),
    )
    keys = graph_structural_keys(graph)
    assert keys["j2"][2] == keys["j1"]  # left input key is j1's own key


def test_acquire_twice_shares_one_entry_with_refcount_two():
    catalog = make_stream_catalog(seed=3)
    registry = SubplanRegistry(catalog)
    one = graph_of(catalog, NodeSpec("j1", "inner", "a", "b", ON))
    two = graph_of(catalog, NodeSpec("j9", "inner", "a", "b", ON))
    mapping_one = registry.acquire(one)
    mapping_two = registry.acquire(two)
    assert mapping_one["j1"] == mapping_two["j9"] == "j1"
    assert len(registry) == 1
    assert refcount_of(registry, "j1") == 2
    assert registry.shared_names() == {"j1"}


def test_within_graph_cse_collapses_identical_siblings():
    catalog = make_stream_catalog(seed=3)
    registry = SubplanRegistry(catalog)
    graph = graph_of(
        catalog,
        NodeSpec("left_copy", "inner", "a", "b", ON),
        NodeSpec("right_copy", "inner", "a", "b", ON),
        NodeSpec("top", "full_outer", "left_copy", "right_copy", ON),
    )
    mapping = registry.acquire(graph)
    assert mapping["left_copy"] == mapping["right_copy"]
    assert len(registry) == 2  # the shared sibling plus the top join
    (top,) = registry.plan_nodes([mapping["top"]])
    assert top.left == top.right == mapping["left_copy"]


def test_fresh_name_appends_suffix_on_clash():
    catalog = make_stream_catalog(seed=3)
    registry = SubplanRegistry(catalog)
    registry.acquire(graph_of(catalog, NodeSpec("j1", "inner", "a", "b", ON)))
    # A *different* subplan spelled with the same node name cannot steal the
    # canonical name already in use.
    mapping = registry.acquire(
        graph_of(catalog, NodeSpec("j1", "left_outer", "a", "b", ON))
    )
    assert mapping["j1"] == "j1~2"
    assert len(registry) == 2


def test_release_is_the_exact_inverse_of_acquire():
    catalog = make_stream_catalog(seed=3)
    registry = SubplanRegistry(catalog)
    shared = NodeSpec("j1", "inner", "a", "b", ON)
    one = graph_of(catalog, shared)
    two = graph_of(
        catalog,
        NodeSpec("j1", "inner", "a", "b", ON),
        NodeSpec("j2", "left_outer", "j1", "c", ON),
    )
    registry.acquire(one)
    mapping_two = registry.acquire(two)
    assert refcount_of(registry, mapping_two["j1"]) == 2
    registry.release(one)
    assert refcount_of(registry, mapping_two["j1"]) == 1
    assert registry.shared_names() == set()
    registry.release(two)
    assert len(registry) == 0
    assert refcount_of(registry, "j1") == 0


def test_plan_nodes_returns_canonical_specs_in_topological_order():
    catalog = make_stream_catalog(seed=3)
    registry = SubplanRegistry(catalog)
    chain = graph_of(
        catalog,
        NodeSpec("j1", "inner", "a", "b", ON),
        NodeSpec("j2", "left_outer", "j1", "c", ON),
    )
    mapping = registry.acquire(chain)
    specs = registry.plan_nodes(mapping.values())
    assert [spec.name for spec in specs] == [mapping["j1"], mapping["j2"]]
    assert specs[1].left == mapping["j1"]
    # The canonical specs form a valid graph of their own.
    merged = DataflowGraph(catalog, specs)
    assert merged.sink == mapping["j2"]
