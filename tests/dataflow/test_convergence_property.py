"""Property-based convergence: random out-of-order replays settle exactly.

The subsystem's acceptance property: for *any* random workload, disorder
bound, watermark cadence, interleaving seed and **runtime transport**
(inline / threads / processes / sockets — drawn by hypothesis), running a
3-way join tree (including a reverse-window node) with early emission on,
the settled output of **every** node equals the batch re-run tuple for
tuple with bitwise-equal probabilities, once all retractions have settled.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec, assert_converged

from tests.dataflow.conftest import make_stream_catalog

#: One reverse-window kind (right/full outer) in every drawn tree.
TREES = [
    [
        NodeSpec("n1", "anti", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
    ],
    [
        NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "full_outer", "n1", "c", (("Key", "Key"),)),
    ],
    [
        NodeSpec("n1", "full_outer", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "inner", "n1", "c", (("Key", "Key"),)),
    ],
]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    tree=st.sampled_from(TREES),
    disorder=st.integers(min_value=0, max_value=12),
    watermark_every=st.integers(min_value=1, max_value=6),
    backend=st.sampled_from(["inline", "threads", "processes", "sockets"]),
    merge_seed=st.integers(min_value=0, max_value=100),
    partitions=st.tuples(
        st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)
    ),
)
def test_random_replays_converge_on_every_node(
    seed, tree, disorder, watermark_every, backend, merge_seed, partitions
):
    catalog, *_ = make_stream_catalog(
        seed,
        sizes=(12, 12, 10),
        disorder=disorder,
        watermark_every=watermark_every,
    )
    # Partitioned stages must be invisible in the settled output: the same
    # convergence property holds for any per-node partition degree.
    tree = [
        replace(spec, partitions=degree) for spec, degree in zip(tree, partitions)
    ]
    query = DataflowQuery(
        catalog, tree, ExecutionOptions(early_emit=True)
    )
    result = query.run(merge_seed=merge_seed, backend=backend)
    # assert_converged checks every node, probabilities bitwise.
    cardinalities = assert_converged(result, catalog, tree)
    assert set(cardinalities) == {"n1", "n2"}


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    disorder=st.integers(min_value=0, max_value=12),
)
def test_watermark_only_mode_never_retracts_and_converges(seed, disorder):
    tree = TREES[seed % len(TREES)]
    catalog, *_ = make_stream_catalog(seed, sizes=(12, 12, 10), disorder=disorder)
    query = DataflowQuery(catalog, tree, ExecutionOptions(early_emit=False))
    result = query.run(merge_seed=seed)
    assert_converged(result, catalog, tree)
    for node in result.nodes.values():
        assert node.stats.retracts == 0
        assert node.retraction_rate == 0.0
