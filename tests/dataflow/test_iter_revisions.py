"""Live single-consumer revision iteration on a dataflow query."""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.dataflow import (
    DataflowQuery,
    MultipleConsumerError,
    NodeSpec,
    Revision,
)
from repro.relation import TPTuple
from repro.stream.elements import Watermark

from tests.dataflow.conftest import make_stream_catalog

ON = (("Key", "Key"),)


def make_query(seed=11, kind="left_outer", backend_config=None) -> DataflowQuery:
    catalog, _a, _b, _c = make_stream_catalog(seed)
    config = backend_config or ExecutionOptions(early_emit=True)
    return DataflowQuery(catalog, [NodeSpec("j1", kind, "a", "b", ON)], config)


def net_state(elements) -> list:
    entries = {}
    for element in elements:
        if isinstance(element, Revision):
            if element.adds:
                entries[element.tuple.key()] = element.tuple
            else:
                entries.pop(element.tuple.key(), None)
    return sorted(entries.values(), key=TPTuple.key)


def test_live_iteration_matches_settled_run():
    elements = list(make_query().iter_revisions(merge_seed=3))
    settled = make_query().run(merge_seed=3, backend="inline")
    assert net_state(elements) == sorted(settled.relation.tuples, key=TPTuple.key)
    assert any(isinstance(e, Revision) for e in elements)


def test_watermarks_are_min_merged_and_monotone():
    # Two sink partitions: the iterator must min-merge their watermarks.
    catalog, _a, _b, _c = make_stream_catalog(11)
    query = DataflowQuery(
        catalog,
        [NodeSpec("j1", "left_outer", "a", "b", ON, partitions=2)],
        ExecutionOptions(early_emit=True),
    )
    marks = [
        e.value for e in query.iter_revisions(merge_seed=3) if isinstance(e, Watermark)
    ]
    assert marks, "expected watermarks on the sink stream"
    assert marks == sorted(marks)
    assert marks[-1] == float("inf")


def test_second_consumer_is_rejected_loudly():
    query = make_query()
    iterator = query.iter_revisions()
    next(iterator)  # the stream is live
    with pytest.raises(MultipleConsumerError) as exc_info:
        query.iter_revisions()
    # The error routes users to the serving layer by name.
    assert "repro.serve.StandingQueryService" in str(exc_info.value)
    iterator.close()
    # Abandoning the first consumer frees the query for a fresh iteration.
    assert any(isinstance(e, Revision) for e in query.iter_revisions())


def test_abandoning_the_iterator_cancels_the_run():
    query = make_query()
    iterator = query.iter_revisions()
    next(iterator)
    iterator.close()  # must not hang or leak the driver thread
    assert list(query.iter_revisions())  # and the query remains usable


def test_out_of_process_backends_are_rejected():
    query = make_query()
    with pytest.raises(ValueError, match="in-process"):
        query.iter_revisions(backend="sockets")
