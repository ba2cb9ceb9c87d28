"""An early-emitting node nothing reads settles each group once.

A sink with no downstream node, no tap and no revision iterator has no
reader for provisional windows, so its :class:`~repro.dataflow.RevisionJoin`
only stamps the batch end at which each group first has windows and derives
the group once, when it closes.  What it reports must still mean what an
early-emitting node's report means: the same settled relation (probabilities
bitwise), the same ``emit_event_lags`` and ``groups_published_early`` as the
same sink tapped, and — since it sent nothing provisional — the revision
counters of a watermark-only run.

A thread run's micro-batch boundaries depend on scheduling, so the
tapped/untapped comparison of its lags replays the input the unread sink
received, batch ends included, into a published build of the same spec.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import ExecutionOptions
from repro.dataflow import (
    DataflowGraph,
    NodeSpec,
    RevisionJoin,
    identity_rows,
    run_graph,
)
from repro.dataflow.compile import compile_graph
from repro.relation import TPTuple
from repro.stream import JOIN_KINDS, LEFT, RIGHT, Tagged, Watermark

from tests.dataflow.conftest import make_stream_catalog
from tests.dataflow.test_revision_join import additions, emit, rel, step

ON = (("Key", "Key"),)
# Batches of one on every transport: each change of an upstream group is
# published, so the sink has provisional input to unwind.
EARLY = ExecutionOptions(
    early_emit=True, materialize_probabilities=True, micro_batch_size=1
)


def tree(sink_partitions: int) -> list:
    return [
        NodeSpec("n1", "left_outer", "a", "b", ON),
        NodeSpec("n2", "right_outer", "n1", "c", ON, partitions=sink_partitions),
    ]


def graph_for(sink_partitions: int, seed: int = 31) -> DataflowGraph:
    catalog, *_ = make_stream_catalog(seed, disorder=8)
    return DataflowGraph(catalog, tree(sink_partitions))


def ignore(_channel_id, _element) -> None:
    """A tap that reads nothing, but makes the node a read one."""


def recording(log: dict):
    """A probe logging what each operator is handed: every tagged element,
    ``None`` for each batch end."""

    def probe(channel_id, join) -> None:
        entries = log.setdefault(channel_id, [])
        process, end_batch = join.process, join.end_batch

        def logged_process(tagged):
            entries.append(tagged)
            return process(tagged)

        def logged_end_batch():
            entries.append(None)
            return end_batch()

        join.process, join.end_batch = logged_process, logged_end_batch

    return probe


def replay(spec, entries):
    """Drive a fresh build of ``spec`` over recorded input: its report, and
    how many revisions its batch ends published."""
    join = spec.build_join()
    published = 0
    for tagged in entries:
        if tagged is None:
            published += sum(len(run) for _trace, run in join.end_batch())
        else:
            join.process(tagged)
    join.close()
    return spec.report(join), published


def sink_specs(graph: DataflowGraph, config, taps=None) -> list:
    specs, _stages = compile_graph(graph, config, taps=taps)
    return [spec for spec in specs if spec.name == graph.sink]


@pytest.mark.parametrize("sink_partitions", [1, 2])
@pytest.mark.parametrize("backend", ["inline", "threads"])
def test_unread_sink_reports_what_the_tapped_sink_does(backend, sink_partitions):
    graph = graph_for(sink_partitions)
    log: dict = {}
    unread = run_graph(
        graph, EARLY, 5, transport=backend, probes={"n2": recording(log)}
    )
    tapped = run_graph(graph, EARLY, 5, transport=backend, taps={"n2": ignore})
    rows = identity_rows(unread.settled["n2"])
    assert rows and all(row[-1] is not None for row in rows)
    assert rows == identity_rows(tapped.settled["n2"])  # probabilities bitwise
    if backend == "inline":
        # One element at a time: both runs cut the same batches.
        assert unread.emit_event_lags["n2"] == tapped.emit_event_lags["n2"]
        assert (
            unread.stats["n2"].groups_published_early
            == tapped.stats["n2"].groups_published_early
        )

    # The same recorded input, unread and read: the unread build reproduces
    # the run, the read one publishes — and says the same about each group.
    unread_specs = sink_specs(graph, EARLY)
    read_specs = sink_specs(graph, EARLY, taps={"n2": ignore})
    assert not any(spec.read for spec in unread_specs)
    assert all(spec.read for spec in read_specs)
    lags, published_early, read_outputs = [], 0, []
    for unread_spec, read_spec in zip(unread_specs, read_specs):
        entries = log[unread_spec.channel_id]
        report, unread_published = replay(unread_spec, entries)
        read_report, read_published = replay(read_spec, entries)
        assert unread_published == 0
        assert read_published > 0
        assert read_report.emit_event_lags == report.emit_event_lags
        assert read_report.stats[3] == report.stats[3]  # groups_published_early
        assert identity_rows(read_report.outputs) == identity_rows(report.outputs)
        lags.extend(report.emit_event_lags)
        published_early += report.stats[3]
        read_outputs.extend(read_report.outputs)
    assert lags == unread.emit_event_lags["n2"]
    assert published_early == unread.stats["n2"].groups_published_early > 0
    assert identity_rows(read_outputs) == rows


@pytest.mark.parametrize("kind", sorted(JOIN_KINDS))
def test_every_sink_kind_stamps_exactly_the_groups_it_would_publish(kind):
    """A side keeping unmatched windows has windows for every positive, an
    overlapping-only side once matched: the stamp rule, for each kind."""
    catalog, *_ = make_stream_catalog(33, disorder=8)
    graph = DataflowGraph(catalog, [tree(1)[0], NodeSpec("n2", kind, "n1", "c", ON)])
    unread = run_graph(graph, EARLY, 3)
    tapped = run_graph(graph, EARLY, 3, taps={"n2": ignore})
    assert identity_rows(unread.settled["n2"]) == identity_rows(tapped.settled["n2"])
    assert unread.emit_event_lags["n2"] == tapped.emit_event_lags["n2"]
    assert (
        unread.stats["n2"].groups_published_early
        == tapped.stats["n2"].groups_published_early
        > 0
    )


@pytest.mark.parametrize("sink_partitions", [1, 2])
@pytest.mark.parametrize("backend", ["inline", "threads"])
def test_unread_sink_counters_are_a_watermark_only_sinks(backend, sink_partitions):
    graph = graph_for(sink_partitions)
    early = run_graph(graph, EARLY, 5, transport=backend)
    settled = run_graph(
        graph, replace(EARLY, early_emit=False), 5, transport=backend
    )
    got, want = early.stats["n2"], settled.stats["n2"]
    assert (got.emits, got.refines, got.retracts, got.groups_settled) == (
        want.emits,
        want.refines,
        want.retracts,
        want.groups_settled,
    )
    assert got.refines == got.retracts == 0
    assert got.emits == len(early.settled["n2"])
    assert identity_rows(early.settled["n2"]) == identity_rows(settled.settled["n2"])
    # Its upstream still publishes provisionally, so the sink unwinds inputs.
    assert early.stats["n1"].retracts > 0
    assert got.inputs_retracted > 0


@pytest.mark.parametrize(
    "nodes",
    [
        # Every positive of a left outer join has windows: one derivation
        # per settled group.
        [NodeSpec("n1", "left_outer", "a", "b", ON)],
        # A right outer join's forward positives have windows only once
        # matched; one without never had any to derive.
        tree(1),
    ],
    ids=["left_outer", "right_outer"],
)
def test_unread_sink_derives_each_group_once_when_it_closes(nodes):
    catalog, *_ = make_stream_catalog(32, disorder=8)
    graph = DataflowGraph(catalog, nodes)
    derived: list = []
    joins: list = []

    def probe(_channel_id, join) -> None:
        joins.append(join)
        derive, close = join._derive, join.close
        closing = []

        def counted(is_reverse, groups):
            assert closing, "an unread sink derived before it closed"
            groups = list(groups)
            # Kept alive: ids stay unique.
            derived.extend((is_reverse, group.r) for group in groups)
            return derive(is_reverse, groups)

        def guarded_close():
            closing.append(True)
            return close()

        join._derive, join.close = counted, guarded_close

    outcome = run_graph(graph, EARLY, 7, transport="inline", probes={graph.sink: probe})
    (join,) = joins
    stats = outcome.stats[graph.sink]
    assert not join._read and join.early_emit
    once = {(is_reverse, id(positive)) for is_reverse, positive in derived}
    assert len(once) == len(derived), "a group was derived twice"
    assert stats.refines == stats.retracts == 0
    if nodes[-1].kind == "left_outer":
        assert len(derived) == stats.groups_settled > 0
    else:
        assert 0 < len(derived) < stats.groups_settled


def one_match():
    """A positive ``[2, 8)`` and a matching negative ``[4, 6)``."""
    left = rel("l", [("k", "l0", "l0", 2, 8, 0.7)])
    right = rel("r", [("k", "r0", "r0", 4, 6, 0.9)])
    return left, right


def test_directly_constructed_revision_join_still_publishes():
    left, right = one_match()
    join = RevisionJoin(
        "left_outer", left.schema, right.schema, [("Key", "Key")], early_emit=True
    )
    published = additions(step(join, emit(LEFT, left.tuples[0])))
    assert [revision.provisional for revision in published] == [True]
    assert join.stats.groups_published_early == 1


def test_unread_join_stamps_at_batch_end_and_emits_when_it_closes():
    left, right = one_match()
    join = RevisionJoin(
        "left_outer",
        left.schema,
        right.schema,
        [("Key", "Key")],
        early_emit=True,
        read=False,
    )
    assert "unread" in join.describe()
    assert step(join, emit(LEFT, left.tuples[0])) == []
    assert step(join, emit(RIGHT, right.tuples[0])) == []
    assert join.stats.groups_published_early == 1
    assert len(join.emit_event_lags) == 1
    out = join.process(Tagged(LEFT, Watermark(9))) + join.process(
        Tagged(RIGHT, Watermark(9))
    )
    # Settled, but nothing reads it before it closes: nothing derived, and
    # no watermark either.
    assert out == []
    assert join.stats.groups_settled == 1 and join.stats.emits == 0
    settled = join.close()
    # l0 [2, 8) minus r0 [4, 6): unmatched, overlapping, negating, unmatched,
    # as the tuples themselves — nothing reads them, so nothing wraps them.
    assert len(settled) == 4 and all(isinstance(t, TPTuple) for t in settled)
    assert join.stats.emits == 4 and join.stats.groups_settled == 1
    assert len(join.emit_event_lags) == 1  # stamped once, not again at settle
    assert len(join.settled_outputs) == 4
