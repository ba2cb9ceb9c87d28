"""StandingQueryService: lifecycle, plan sharing, snapshots, late joiners."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.dataflow.revision import Revision, RevisionKind
from repro.engine import CatalogError
from repro.lineage import Var
from repro.relation import TPTuple
from repro.serve import END_OF_STREAM, ServeError, StandingQueryService
from repro.stream.elements import Watermark
from repro.temporal import Interval

from tests.serve.conftest import make_gated_catalog, make_stream_catalog

ON = (("Key", "Key"),)
JOIN = NodeSpec("j1", "left_outer", "a", "b", ON)


def make_service(seed=5, **kwargs) -> StandingQueryService:
    return StandingQueryService(make_stream_catalog(seed=seed), **kwargs)


def settled_sorted(tuples) -> list:
    return sorted(tuples, key=TPTuple.key)


def drain(subscription, timeout=10.0) -> list:
    items = []
    deadline = time.monotonic() + timeout
    while True:
        item = subscription.read(timeout=max(0.01, deadline - time.monotonic()))
        assert item is not None, "unexpected subscription read timeout"
        if item is END_OF_STREAM:
            return items
        items.append(item)


def net_settled_state(elements) -> list:
    """Accumulate a revision stream into its net settled tuple set."""
    from repro.serve import ResultCache

    cache = ResultCache()
    for element in elements:
        cache.apply(element)
    return settled_sorted(cache.snapshot(settled_only=True))


def test_lifecycle_idle_until_first_subscriber_then_settles():
    service = make_service()
    service.register("q1", [JOIN])
    assert service.stats()["q1"]["running"] is False
    subscription = service.subscribe("q1")
    elements = drain(subscription)
    assert any(isinstance(e, Revision) for e in elements)
    assert any(isinstance(e, Watermark) for e in elements)
    record = service.lookup("q1")
    assert record.group.finished.wait(timeout=5.0)
    assert service.stats()["q1"]["running"] is False
    subscription.close()
    service.shutdown()


def test_settled_state_matches_direct_dataflow_run():
    config = ExecutionOptions(early_emit=True)
    catalog = make_stream_catalog(seed=5)
    direct = DataflowQuery(catalog, [JOIN], config).run(backend="inline")
    service = StandingQueryService(make_stream_catalog(seed=5), config=config)
    service.register("q1", [JOIN])
    subscription = service.subscribe("q1")
    elements = drain(subscription)
    assert net_settled_state(elements) == settled_sorted(direct.relation.tuples)
    # The materialized cache converged to the same state.
    assert settled_sorted(service.snapshot("q1", settled_only=True)) == settled_sorted(
        direct.relation.tuples
    )
    service.shutdown()


def test_last_detach_stops_the_group_mid_flight():
    # A stalled subscriber holds the group open; detaching it must cancel
    # the run and close the hubs rather than leaving threads behind.
    service = make_service(policy="block", hub_capacity=4)
    service.register("q1", [JOIN])
    first = service.subscribe("q1")
    second = service.subscribe("q1")
    group = service.lookup("q1").group
    first.close()
    assert not group.cancel.is_set()  # one subscriber still attached
    second.close()
    assert group.cancel.is_set()
    assert group.join(timeout=5.0)
    service.shutdown()


def test_linger_keeps_the_group_alive_for_a_resubscribe():
    # Gated sources: the group cannot settle on its own, so the lingering
    # group is guaranteed to still be the one the resubscriber lands on.
    gate = threading.Event()
    service = StandingQueryService(
        make_gated_catalog(5, gate), linger_seconds=30.0
    )
    service.register("q1", [JOIN])
    first = service.subscribe("q1")
    group = service.lookup("q1").group
    first.close()
    assert not group.cancel.is_set()  # lingering, not stopped
    second = service.subscribe("q1")
    assert service.lookup("q1").group is group  # same run, no restart
    gate.set()
    elements = drain(second)  # the resubscriber still sees the full stream
    assert any(isinstance(e, Revision) for e in elements)
    second.close()
    group.join(timeout=10.0)
    service.shutdown()


def test_two_queries_sharing_a_subplan_execute_it_once(monkeypatch):
    from repro.serve import registry as registry_module

    # Collect the operator instances the group's run builds, through the
    # executor's probe seam.
    operators: list = []
    run_graph = registry_module.run_graph

    def probed_run_graph(graph, *args, **kwargs):
        probes = {name: lambda _channel, join: operators.append(join) for name in graph.node_names}
        return run_graph(graph, *args, probes=probes, **kwargs)

    monkeypatch.setattr(registry_module, "run_graph", probed_run_graph)
    partitions = 2
    shared_spec = NodeSpec("j1", "left_outer", "a", "b", ON, partitions=partitions)
    config = ExecutionOptions(early_emit=True, materialize_probabilities=True)
    # Gated sources: nothing is published (and the group cannot settle)
    # until both subscribers are attached, so both observe the full stream.
    gate = threading.Event()
    service = StandingQueryService(
        make_gated_catalog(5, gate), config=config, hub_capacity=4096
    )
    service.register("q1", [shared_spec])
    service.register("q2", [NodeSpec("other_name", "left_outer", "a", "b", ON, partitions=partitions)])
    assert service._registry.shared_names() == {"j1"}
    one = service.subscribe("q1")
    two = service.subscribe("q2")
    gate.set()
    # Both standing queries landed in one plan group over one merged graph,
    # whose one shared node is one partitioned operator set, not one per
    # query: the subplan registry holds it once for both.
    first, second = service.lookup("q1"), service.lookup("q2")
    assert first.group is second.group
    assert first.sink_canonical == second.sink_canonical == "j1"
    refcounts = {entry.name: entry.refcount for entry in service._registry._by_key.values()}
    assert refcounts["j1"] == 2
    assert first.group.graph.node_names == ["j1"]
    assert first.group.graph.partition_counts == [partitions]
    assert first.hub is second.hub
    elements_one = drain(one)
    elements_two = drain(two)
    # Both subscribers observed the identical (non-empty) revision stream.
    state_one = net_settled_state(elements_one)
    assert state_one and state_one == net_settled_state(elements_two)
    # One operator instance per partition — not per query — and its
    # maintainer answers every key with its one probability computer.
    assert len(operators) == partitions
    maintainer = operators[0].maintainer
    key = next(iter(service.snapshot("q1"))).fact[0]
    assert maintainer.computer_for((key,)) is maintainer.computer
    service.shutdown()


def test_a_partition_publishes_its_elements_before_its_watermark_enters_the_merge():
    # Two partitions tap one sink.  Partition 1 dispatches [late, W(10)] and
    # is held inside its first hub call while partition 0 reports W(10).
    # The merged frontier may reach the hub only after `late`, which it
    # covers (late.tuple.start < 10).
    from repro.serve import ResultCache
    from repro.serve.registry import PlanGroup

    service = make_service()
    service.register("q1", [NodeSpec("j1", "left_outer", "a", "b", ON, partitions=2)])
    record = service.lookup("q1")
    graph, transport = service._group_plan([record])
    group = PlanGroup([record], graph, ExecutionOptions(), transport, None, 16, "block")
    published: list = []
    inside, release = threading.Event(), threading.Event()

    class HeldHub:
        def publish_all(self, items, update=None):
            if threading.current_thread() is held:
                inside.set()
                assert release.wait(10.0)
            published.extend(items)
            return len(items)

    tap = group._make_tap("j1", HeldHub(), ResultCache())
    late = Revision(RevisionKind.EMIT, TPTuple(("k", "s"), Var("e"), Interval(5, 6), 0.5))
    # A node's partition p reports on channel ("node", node index, p).
    held = threading.Thread(target=tap, args=(("node", 0, 1), [late, Watermark(10)]))
    held.start()
    assert inside.wait(10.0)
    tap(("node", 0, 0), [Watermark(10)])
    release.set()
    held.join(10.0)
    assert published == [late, Watermark(10)]
    frontier = float("-inf")
    for element in published:
        if isinstance(element, Watermark):
            frontier = element.value
        else:
            assert element.tuple.start >= frontier
    service.shutdown()


def test_merged_watermarks_reach_the_hub_in_merge_order():
    # Partition 1's W(10) merges the frontier to 5, and its tap is held
    # inside the hub call that publishes it while partition 0's W(10)
    # merges it to 10.  The hub must get W(5) before W(10), never after.
    from repro.serve import ResultCache
    from repro.serve.registry import PlanGroup

    service = make_service()
    service.register("q1", [NodeSpec("j1", "left_outer", "a", "b", ON, partitions=2)])
    record = service.lookup("q1")
    graph, transport = service._group_plan([record])
    group = PlanGroup([record], graph, ExecutionOptions(), transport, None, 16, "block")
    published: list = []
    inside, release = threading.Event(), threading.Event()

    class HeldHub:
        def publish_all(self, items, update=None):
            if threading.current_thread() is held:
                inside.set()
                assert release.wait(10.0)
            published.extend(items)
            return len(items)

    tap = group._make_tap("j1", HeldHub(), ResultCache())
    tap(("node", 0, 0), [Watermark(5)])
    assert published == []
    held = threading.Thread(target=tap, args=(("node", 0, 1), [Watermark(10)]))
    held.start()
    assert inside.wait(10.0)
    other = threading.Thread(target=tap, args=(("node", 0, 0), [Watermark(10)]))
    other.start()
    # Give partition 0 the time to publish ahead of partition 1, if it can.
    other.join(0.5)
    release.set()
    held.join(10.0)
    other.join(10.0)
    assert not held.is_alive() and not other.is_alive()
    watermarks = [element.value for element in published if isinstance(element, Watermark)]
    assert watermarks == sorted(watermarks) == [5, 10]
    service.shutdown()


def test_disjoint_queries_do_not_share_a_group():
    service = make_service()
    service.register("q1", [JOIN])
    service.register("q2", [NodeSpec("j2", "inner", "a", "c", ON)])
    assert service._registry.shared_names() == set()
    one = service.subscribe("q1")
    two = service.subscribe("q2")
    assert service.lookup("q1").group is not service.lookup("q2").group
    drain(one)
    drain(two)
    service.shutdown()


def test_late_joiner_snapshot_plus_tail_equals_from_start_accumulation():
    service = make_service(hub_capacity=1024)
    service.register("q1", [JOIN])
    from_start = service.subscribe("q1")
    # Let the query make real progress before the late joiner arrives.
    early_elements = []
    while len([e for e in early_elements if isinstance(e, Revision)]) < 20:
        item = from_start.read(timeout=5.0)
        assert item is not None and item is not END_OF_STREAM
        early_elements.append(item)
    late = service.subscribe("q1")
    assert late.snapshot is not None
    tail = drain(late)
    remainder = drain(from_start)
    # Bitwise equality: the late joiner's snapshot + live tail accumulates
    # to exactly the from-start subscriber's accumulated settled state.
    from repro.serve import ResultCache

    from_start_cache = ResultCache()
    for element in early_elements + remainder:
        from_start_cache.apply(element)
    late_cache = ResultCache()
    for tp_tuple in late.snapshot:
        late_cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
    for element in tail:
        late_cache.apply(element)
    assert settled_sorted(late_cache.snapshot()) == settled_sorted(
        from_start_cache.snapshot()
    )
    service.shutdown()


def test_subscribe_without_snapshot_carries_none():
    service = make_service()
    service.register("q1", [JOIN])
    subscription = service.subscribe("q1", snapshot=False)
    assert subscription.snapshot is None
    drain(subscription)
    service.shutdown()


def test_explain_marks_shared_subplans():
    service = make_service()
    service.register("q1", [JOIN])
    assert "shared=" not in service.explain("q1")
    service.register("q2", [NodeSpec("mine", "left_outer", "a", "b", ON)])
    plan = service.explain("q1")
    assert "shared=j1" in plan
    service.shutdown()


@pytest.mark.parametrize(
    "options, nodes",
    [
        # The service names threads; a one-worker query would run inline alone.
        ({"transport": "threads"}, [JOIN]),
        # The query's options name sockets; serving runs in-process.
        (
            {"config": ExecutionOptions(transport="sockets")},
            [NodeSpec("j1", "left_outer", "a", "b", ON, partitions=2)],
        ),
    ],
)
def test_explain_names_the_transport_the_plan_group_runs_on(options, nodes):
    service = make_service(**options)
    service.register("q1", nodes)
    idle = service.explain("q1")
    subscription = service.subscribe("q1")
    transport = service.lookup("q1").group.transport
    assert transport == "threads"
    for plan in (idle, service.explain("q1")):
        assert "workers=threads" in plan
        assert "transport=" not in plan
    drain(subscription)
    service.shutdown()


def test_register_conflicts_and_unregister():
    service = make_service()
    service.register("q1", [JOIN])
    with pytest.raises(ServeError):
        service.register("q1", [JOIN])
    service.register("q1", [NodeSpec("j1", "inner", "a", "b", ON)], replace=True)
    assert service.lookup("q1").query.graph.nodes[0].kind == "inner"
    with pytest.raises(ServeError, match="unknown standing query"):
        service.lookup("nope")
    service.unregister("q1")
    with pytest.raises(ServeError):
        service.unregister("q1")
    assert service.names() == []


def test_standing_queries_register_in_the_catalog_query_namespace():
    catalog = make_stream_catalog(seed=5)
    service = StandingQueryService(catalog)
    service.register("q1", [JOIN])
    assert sorted(catalog._queries) == ["q1"]
    assert catalog.lookup_query("q1") is service.lookup("q1").query
    service.unregister("q1")
    assert sorted(catalog._queries) == []
    with pytest.raises(CatalogError, match="q1"):
        catalog.lookup_query("q1")


def test_a_standing_query_cannot_take_an_engine_query_name():
    """One namespace: the catalog refuses the clash, and the refused
    registration leaves the service as it was."""
    catalog = make_stream_catalog(seed=5)
    engine_query = DataflowQuery(catalog, [JOIN])
    catalog.register_query("q1", engine_query)
    service = StandingQueryService(catalog)
    with pytest.raises(CatalogError, match="q1"):
        service.register("q1", [JOIN])
    assert service.names() == [] and len(service._registry) == 0
    assert catalog.lookup_query("q1") is engine_query


def test_service_rejects_bad_policy_and_transport():
    catalog = make_stream_catalog(seed=5)
    with pytest.raises(ValueError, match="policy"):
        StandingQueryService(catalog, policy="nope")
    with pytest.raises(ValueError, match="transport"):
        StandingQueryService(catalog, transport="sockets")
