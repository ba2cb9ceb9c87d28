"""A stream query is a one-node dataflow graph: one executor, two front doors.

On every transport, ``StreamQuery`` and the one-node ``DataflowQuery`` with
early emission off settle to the same relation (probabilities bitwise when
materialized), and the stream query counts events and late drops exactly
as a direct drive of the operator does.  Every node shape runs the one
operator, ``RevisionJoin``; a stream query's node, which nothing reads,
wraps none of its outputs in a revision.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import ExecutionOptions, Schema
from repro.core import TABLE_II, tp_join
from repro.dataflow import (
    DataflowGraph,
    DataflowQuery,
    NodeSpec,
    Revision,
    RevisionJoin,
    run_graph,
)
from repro.dataflow.convergence import identity_rows
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.stream import StreamQuery, continuous_join, merge_tagged

from tests.conftest import make_random_relations

ON = (("Key", "Key"),)
KIND = "full_outer"
MERGE_SEED = 5

#: (transport, partitions): a one-worker run is the inline one.
TRANSPORTS = [("inline", 1), ("threads", 2), ("processes", 2), ("sockets", 2)]


def _catalog():
    """Streams whose sources evict some events: lateness below disorder."""
    left, right, _theta = make_random_relations(
        17, left_size=40, right_size=40, num_keys=4, time_span=60
    )
    catalog = Catalog()
    for offset, (name, relation) in enumerate((("l", left), ("r", right))):
        replay = ReplayConfig(disorder=12, lateness=3, watermark_every=4, seed=offset)
        catalog.register_stream(name, stream_def(relation, replay))
    return catalog


def _direct_drive(catalog, materialize: bool) -> tuple:
    """Events and late drops of the operator driven straight over the
    router's interleaving: what a stream query has always reported."""
    left, right = (catalog.lookup_stream(name) for name in "lr")
    left_elements, right_elements = left.replay(), right.replay()
    join = continuous_join(
        KIND,
        left.schema,
        right.schema,
        ON,
        events=left.events.merge(right.events),
        materialize_probabilities=materialize,
    )
    merged = list(merge_tagged(left_elements, right_elements, MERGE_SEED))
    list(join.run(merged))
    stats = join.maintainer.stats
    late = stats.late_positives_dropped + stats.late_negatives_dropped
    late += left_elements.stats.late_evicted + right_elements.stats.late_evicted
    events = left_elements.stats.events_emitted + right_elements.stats.events_emitted
    return events, late


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("transport, partitions", TRANSPORTS)
def test_stream_query_settles_like_its_one_node_graph(transport, partitions, materialize):
    catalog = _catalog()
    options = ExecutionOptions(
        transport="threads" if transport == "inline" else transport,
        partitions=partitions,
        materialize_probabilities=materialize,
    )
    stream = StreamQuery(catalog, KIND, "l", "r", ON, config=options).run(
        merge_seed=MERGE_SEED
    )
    graph = DataflowQuery(
        catalog, [NodeSpec("n", KIND, "l", "r", ON, partitions)], options
    ).run(merge_seed=MERGE_SEED, backend=transport)
    assert stream.workers == graph.backend == transport
    assert identity_rows(stream.relation, materialize) == identity_rows(
        graph.relation, materialize
    )
    assert len(stream.relation) > 0
    events, late = _direct_drive(catalog, materialize)
    assert stream.events_processed == graph.events_processed == events
    assert stream.late_dropped == graph.late_dropped == late > 0


@pytest.mark.parametrize("early", [False, True])
def test_both_queries_report_late_drops(early):
    """A late-dropping replay: the stream query and its one-node graph count
    the same drops, and both EXPLAIN ANALYZE reports print them."""
    catalog = _catalog()
    options = ExecutionOptions(early_emit=early)
    stream = StreamQuery(catalog, KIND, "l", "r", ON, config=options).run(
        merge_seed=MERGE_SEED
    )
    graph = DataflowQuery(catalog, [NodeSpec("n", KIND, "l", "r", ON)], options).run(
        merge_seed=MERGE_SEED
    )
    _events, late = _direct_drive(catalog, materialize=False)
    assert stream.late_dropped == graph.late_dropped == late > 0
    for result in (stream, graph):
        assert f"late_dropped={late} " in result.explain_analyze()


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("kind", ["left_outer", "full_outer"])
@pytest.mark.parametrize("transport", ["inline", "threads"])
def test_every_node_runs_the_one_operator_and_a_stream_query_wraps_nothing(
    monkeypatch, transport, kind, materialize
):
    """Every node shape builds ``RevisionJoin``.  A stream query's node is
    read by nothing, so its run builds no ``Revision`` at all, and its
    counters say what the batch join outputs: the fast path, not a fold of
    the published one."""
    left, right, theta = make_random_relations(
        23, left_size=40, right_size=40, num_keys=4, time_span=60
    )
    catalog = Catalog()
    for offset, (name, relation) in enumerate((("l", left), ("r", right))):
        replay = ReplayConfig(disorder=6, watermark_every=4, seed=offset)
        catalog.register_stream(name, stream_def(relation, replay))
    options = ExecutionOptions(
        partitions=1 if transport == "inline" else 2,
        materialize_probabilities=materialize,
        metrics=True,
    )
    chain = [
        NodeSpec("n", kind, "l", "r", ON, partitions=2),
        NodeSpec("m", "left_outer", "n", "r", ON),
    ]

    def operators(nodes, early: bool = False, **hooks) -> set:
        seen: list = []
        run_graph(
            DataflowGraph(catalog, nodes),
            replace(options, early_emit=early),
            transport=transport,
            probes={node.name: lambda _channel, join: seen.append(type(join)) for node in nodes},
            **hooks,
        )
        return set(seen)

    tapped = {"n": lambda _channel, _elements: None}
    assert (
        operators(chain[:1])
        == operators(chain[:1], taps=tapped)
        == operators(chain[:1], early=True)
        == operators(chain)
        == operators(chain, early=True)
        == {RevisionJoin}
    )

    built: list = []
    new = Revision.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Revision, "__new__", counting)
    query = StreamQuery(catalog, kind, "l", "r", ON, config=options)
    result = query.run(merge_seed=MERGE_SEED)
    assert result.workers == transport
    assert built == []
    expected = len(tp_join(kind, left, right, theta))
    totals = query.metrics().totals()
    assert result.outputs_emitted == totals["revision_emits"] == expected > 0
    assert totals["revision_retracts"] == totals["revision_refines"] == 0
    assert totals["groups_settled"] == len(left) + (len(right) if kind == "full_outer" else 0)


@pytest.mark.parametrize("transport", ["inline", "threads"])
@pytest.mark.parametrize("kind", sorted(TABLE_II))
@pytest.mark.parametrize("query", ["stream", "dataflow"])
def test_results_are_not_revalidated(monkeypatch, query, kind, transport):
    """Every settled fact joins facts of validated inputs, so neither
    query type checks a fact again when it builds its result."""
    catalog = _catalog()
    validated = []
    check = Schema.validate_fact

    def counting(schema, fact):
        validated.append(fact)
        return check(schema, fact)

    monkeypatch.setattr(Schema, "validate_fact", counting)
    partitions = 1 if transport == "inline" else 2
    options = ExecutionOptions(partitions=partitions)
    if query == "stream":
        result = StreamQuery(catalog, kind, "l", "r", ON, config=options).run(
            merge_seed=MERGE_SEED
        )
        assert result.workers == transport
    else:
        nodes = [NodeSpec("n", kind, "l", "r", ON, partitions)]
        result = DataflowQuery(catalog, nodes, options).run(merge_seed=MERGE_SEED)
        assert result.backend == transport
    assert len(result.relation) > 0 and validated == []
