"""The one source router (``repro.runtime.driver.run_job``).

Four pins: the single job builder mirrors ``ExecutionOptions`` field for
field (so a knob cannot go silently inert on one kind of run again — the
``seat_timeout`` bug), a stream query and its one-node dataflow twin drive
the router to the same settled answer as the batch join, the two merge
helpers produce the same sequence, and the router's memoised key hashes
route every key to the partition ``stable_key_hash`` gives it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions
from repro.dataflow import BATCH_JOINS, DataflowQuery, NodeSpec, drained_relation
from repro.dataflow.convergence import identity_rows
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.relation import Schema, TPRelation, stable_key_hash
from repro.relation.predicates import StableKeyHashes
from repro.runtime import Placement, merge_edges
from repro.recovery import driver as recovery_driver
from repro.runtime import driver as driver_module
from repro.runtime.transport import InlineSession, InlineTransport
from repro.stream import LEFT, RIGHT, StreamQuery, merge_tagged, theta_from_pairs

from tests.conftest import run_shard_job
from tests.recovery.conftest import query_catalog

ON = (("Key", "Key"),)


# --------------------------------------------------------------------------- #
# the single job builder
# --------------------------------------------------------------------------- #
class _CapturingTransport(InlineTransport):
    """Records what the router asked for, then runs it inline."""

    def __init__(self, captured: list) -> None:
        self._captured = captured

    def start(self, job, placement=None):
        self._captured.append((job, placement))
        return super().start(job, placement)


#: A non-default value in every field the job is built from.
OPTIONS = ExecutionOptions(
    transport="threads",
    partitions=2,
    micro_batch_size=7,
    placement=Placement(("127.0.0.1:1", "127.0.0.1:2")),
    metrics=True,
    metrics_interval=0.25,
    trace=True,
    trace_sample_rate=0.5,
    checkpoint_interval=1.5,
    restart_limit=2,
    seat_timeout=12.0,
)


def _captured_job(monkeypatch, run, options=OPTIONS) -> tuple:
    captured: list = []
    monkeypatch.setattr(
        driver_module, "get_transport", lambda name: _CapturingTransport(captured)
    )

    def recovering(job, session_options, chaos=None):
        captured.append((job, session_options.placement))
        return InlineSession(job)

    monkeypatch.setattr(recovery_driver, "RecoveringSession", recovering)
    run()
    ((job, placement),) = captured
    assert placement is options.placement
    assert job.micro_batch_size == options.micro_batch_size
    assert job.metrics is options.metrics
    assert job.metrics_interval == options.metrics_interval
    assert job.trace is options.trace
    assert job.result_timeout == options.seat_timeout
    return job


@pytest.mark.parametrize(
    "transport, restart_limit, checkpointing",
    [
        # Only the recovering session reads checkpoints, so only its job is
        # told to take them: a plain run would snapshot for nobody.
        ("threads", 2, False),
        ("sockets", 0, False),
        ("sockets", 1, True),
    ],
)
def test_stream_shard_job_mirrors_the_options(
    monkeypatch, transport, restart_limit, checkpointing
):
    options = replace(OPTIONS, transport=transport, restart_limit=restart_limit)
    catalog, _left, _right = query_catalog(3, left_size=12, right_size=12)
    query = StreamQuery(catalog, "left_outer", "l", "r", ON, config=options)
    job = _captured_job(monkeypatch, query.run, options)
    assert len(job.specs) == options.partitions
    assert all(spec.collect_outputs for spec in job.specs)
    assert job.checkpoint_interval == (
        options.checkpoint_interval if checkpointing else None
    )


#: Two nodes joined by a peer edge: ``m`` consumes ``n``'s revisions.
CHAIN = [
    NodeSpec("n", "full_outer", "l", "r", ON, partitions=2),
    NodeSpec("m", "left_outer", "n", "r", ON),
]


def test_dataflow_job_mirrors_the_options_but_withholds_checkpoints(monkeypatch):
    """Workers with peer edges cannot be snapshotted, so the checkpoint
    interval must never reach them — every other field, the seat timeout
    included, must."""
    catalog, _left, _right = query_catalog(3, left_size=12, right_size=12)
    query = DataflowQuery(catalog, CHAIN, OPTIONS)
    job = _captured_job(monkeypatch, query.run)
    assert len(job.specs) == 3
    assert not any(spec.collect_outputs for spec in job.specs)
    assert job.checkpoint_interval is None


def explain_plan(catalog, nodes, options) -> str:
    """EXPLAIN of ``nodes`` over the streams ``l`` and ``r``, as the engine
    renders a planned stream join."""
    from repro.engine import DataflowJoin
    from repro.engine.explain import explain_plan

    return explain_plan(DataflowJoin(tuple(nodes), ("l", "r"), options), catalog)


def test_dataflow_socket_run_under_recovery_knobs_runs_unrecovered_and_says_so():
    """The trap the builder guards: a socket graph run under recovery knobs
    must take the plain session (no snapshot of a node worker is ever
    attempted) and settle exactly like the inline run — and nothing
    half-recovers silently: the run warns, EXPLAIN carries the marker."""
    catalog, _left, _right = query_catalog(5, left_size=25, right_size=25)
    nodes = CHAIN
    inline = DataflowQuery(catalog, nodes, ExecutionOptions()).run(
        merge_seed=5, backend="inline"
    )
    options = ExecutionOptions(
        transport="sockets", restart_limit=1, checkpoint_interval=0.0
    )
    with pytest.warns(RuntimeWarning, match="peer edges.*unrecovered"):
        sockets = DataflowQuery(catalog, nodes, options).run(merge_seed=5)
    assert sockets.backend == "sockets"
    assert sockets.recoveries() == []
    for plan_options, marked in ((options, True), (ExecutionOptions(), False)):
        plan = explain_plan(catalog, nodes, plan_options)
        assert ("[not recoverable: peer edges]" in plan) is marked
        assert "[recoverable" not in plan
    assert identity_rows(sockets.relation) == identity_rows(inline.relation)


@pytest.mark.parametrize(
    "early, marker",
    [(False, "[recoverable ckpt=0s]"), (True, "[not recoverable: early emission]")],
)
def test_a_one_node_graph_has_no_peer_edges(early, marker):
    """Only a node-to-node edge is a peer edge: a one-node graph with early
    emission off collects its outputs like a stream query and recovers like
    one; an early-emitting one is refused for what it is."""
    catalog, _left, _right = query_catalog(5, left_size=12, right_size=12)
    nodes = [NodeSpec("n", "full_outer", "l", "r", ON, partitions=2)]
    options = ExecutionOptions(
        transport="sockets", restart_limit=1, checkpoint_interval=0.0, early_emit=early
    )
    plan = explain_plan(catalog, nodes, options)
    assert marker in plan
    assert "peer edges" not in plan


# --------------------------------------------------------------------------- #
# router equivalence: stream shards ≡ one-node graph ≡ batch
# --------------------------------------------------------------------------- #
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    merge_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
    partitions=st.sampled_from((1, 2, 3)),
    kind=st.sampled_from(sorted(BATCH_JOINS)),
)
def test_stream_query_and_one_node_graph_settle_to_the_batch_join(
    seed, merge_seed, partitions, kind
):
    catalog, _left, _right = query_catalog(seed, left_size=24, right_size=24)
    stream = StreamQuery(
        catalog, kind, "l", "r", ON, config=ExecutionOptions(partitions=partitions)
    ).run(merge_seed=merge_seed)
    graph = DataflowQuery(
        catalog, [NodeSpec("n", kind, "l", "r", ON, partitions=partitions)]
    ).run(merge_seed=merge_seed)
    left = drained_relation(catalog.lookup_stream("l"))
    right = drained_relation(catalog.lookup_stream("r"))
    batch = BATCH_JOINS[kind](
        left, right, theta_from_pairs(left.schema, right.schema, ON)
    )
    assert stream.events_processed == graph.events_processed == len(left) + len(right)
    settled = identity_rows(stream.relation.with_probabilities())
    assert settled == identity_rows(graph.relation.with_probabilities())
    assert settled == identity_rows(batch)


# --------------------------------------------------------------------------- #
# the surviving duplicate cannot drift
# --------------------------------------------------------------------------- #
@given(
    left=st.lists(st.integers(), max_size=12),
    right=st.lists(st.integers(), max_size=12),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
def test_merge_tagged_is_the_two_edge_merge(left, right, seed):
    tagged = [(item.side, item.element) for item in merge_tagged(left, right, seed)]
    edges = [(0, LEFT, iter(left)), (0, RIGHT, iter(right))]
    assert tagged == [
        (side, element) for _edge, _stage, side, element in merge_edges(edges, seed)
    ]


@pytest.mark.parametrize("seed", [None, 0, 7])
def test_merge_tagged_and_merge_edges_interleave_streams_alike(seed):
    catalog, _left, _right = query_catalog(11, left_size=20, right_size=20)
    left, right = (catalog.lookup_stream(name) for name in "lr")
    tagged = merge_tagged(left.replay(), right.replay(), seed)
    edges = [(0, LEFT, left.replay()), (0, RIGHT, right.replay())]
    merged = merge_edges(edges, seed)
    assert [item.side for item in tagged] == [side for _, _, side, _ in merged]


# --------------------------------------------------------------------------- #
# memoised key hashes
# --------------------------------------------------------------------------- #
#: Keys from str, int/float/bool and None; ``1 == 1.0 == True`` and
#: ``0 == 0.0 == False``, so those share one memo entry.
MIXED_KEYS = [
    ("k",),
    (1,),
    (1.0,),
    (True,),
    (0,),
    (0.0,),
    (False,),
    (2.5,),
    (None,),
    ("k", 1),
    ("k", True),
    (None, 2.0),
    ("",),
]


@pytest.mark.parametrize("order", [1, -1])
def test_memoised_key_hashes_assign_the_partitions_stable_key_hash_does(order):
    hashes = StableKeyHashes()
    for key in MIXED_KEYS[::order]:
        assert hashes[key] == stable_key_hash(key)
    for key in MIXED_KEYS:
        for partitions in (2, 3, 7):
            assert hashes[key] % partitions == stable_key_hash(key) % partitions
    assert len(hashes) == len(set(MIXED_KEYS))


def test_the_router_sends_mixed_type_keys_to_their_stable_hash_partition():
    values = [key[0] for key in MIXED_KEYS if len(key) == 1]

    def relation(name: str) -> TPRelation:
        rows = [
            (value, f"{name}{index}", f"{name}{index}", 3 * index, 3 * index + 5, 0.5)
            for index, value in enumerate(values)
        ]
        return TPRelation.from_rows(Schema.of("Key", "Serial"), rows, name=name)

    catalog = Catalog()
    catalog.register_stream("l", stream_def(relation("l"), ReplayConfig(seed=1)))
    catalog.register_stream("r", stream_def(relation("r"), ReplayConfig(seed=2)))
    reports, *_ = run_shard_job("inline", catalog, partitions=3)
    routed = 0
    for report in reports:
        for tp_tuple in report.outputs:
            assert stable_key_hash((tp_tuple.fact[0],)) % 3 == report.index
            routed += 1
    assert routed >= len(values)
