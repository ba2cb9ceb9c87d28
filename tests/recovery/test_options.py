"""The unified ExecutionOptions surface and symmetric results.

Validation rejects nonsense knobs loudly, StreamQuery and DataflowQuery
results expose the identical introspection surface
(``metrics()``/``trace()``/``recoveries()``/``explain_analyze()``), EXPLAIN renders the recovery marker, and the socket transport honours the
configurable result-frame timeout with the seat's address in the error.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.engine import Engine
from repro.stream import StreamQuery

from tests.dataflow.conftest import make_stream_catalog
from tests.recovery.conftest import query_catalog

ON = (("Key", "Key"),)


# --------------------------------------------------------------------------- #
# construction + validation
# --------------------------------------------------------------------------- #
def test_options_defaults_are_the_historical_ones():
    options = ExecutionOptions()
    assert options.transport == "threads"
    assert options.partitions == 1
    assert options.checkpoint_interval is None
    assert options.restart_limit == 0
    assert options.seat_timeout is None
    assert not options.recovery_enabled


@pytest.mark.parametrize(
    "kwargs",
    (
        {"transport": "carrier-pigeons"},
        {"partitions": 0},
        {"micro_batch_size": 0},
        {"trace_sample_rate": 1.5},
        {"checkpoint_interval": -0.1},
        {"restart_limit": -1},
        {"seat_timeout": 0.0},
    ),
)
def test_options_validation_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        ExecutionOptions(**kwargs)


def test_recovery_requires_sockets_and_a_restart_budget():
    assert ExecutionOptions(transport="sockets", restart_limit=1).recovery_enabled
    assert not ExecutionOptions(transport="sockets").recovery_enabled
    assert not ExecutionOptions(transport="threads", restart_limit=1).recovery_enabled


def test_options_is_frozen_and_importable_from_the_package_root():
    import repro

    assert repro.ExecutionOptions is ExecutionOptions
    with pytest.raises(Exception):
        ExecutionOptions().partitions = 2  # type: ignore[misc]


# --------------------------------------------------------------------------- #
# symmetric result introspection
# --------------------------------------------------------------------------- #
INTROSPECTION = ("metrics", "trace", "recoveries", "explain_analyze", "explain_tuple")


def test_stream_and_dataflow_results_share_the_introspection_surface():
    catalog, *_ = query_catalog(23, left_size=30, right_size=30)
    stream_result = StreamQuery(
        catalog, "left_outer", "l", "r", ON, config=ExecutionOptions()
    ).run(merge_seed=23)

    graph_catalog, *_ = make_stream_catalog(23, sizes=(20, 20, 15), disorder=3)
    graph_result = DataflowQuery(
        graph_catalog,
        [NodeSpec("n1", "left_outer", "a", "b", ON)],
        ExecutionOptions(early_emit=True),
    ).run(backend="inline", merge_seed=23)

    for result in (stream_result, graph_result):
        for name in INTROSPECTION:
            assert callable(getattr(result, name)), name
        # No instrumentation, no failures: the quiet answers agree too.
        assert result.metrics() is None
        assert result.trace() is None
        assert result.recoveries() == []
        assert isinstance(result.explain_analyze(), str)

    # Graph runs never recover (multi-node in-flight edges are not
    # checkpointable), so the surface is present but permanently empty.
    assert graph_result.recovery_events == []


def test_stream_result_reports_recoveries_in_explain_analyze():
    from repro.recovery.chaos import ChaosInjector

    catalog, *_ = query_catalog(23)
    options = ExecutionOptions(
        transport="sockets", partitions=2, micro_batch_size=8, restart_limit=2
    )
    result = StreamQuery(catalog, "anti", "l", "r", ON, config=options).run(
        merge_seed=23, chaos=ChaosInjector([(40, 1)])
    )
    events = result.recoveries()
    assert len(events) == 1
    report = result.explain_analyze()
    assert "recoveries: 1" in report
    assert events[0].describe() in report


# --------------------------------------------------------------------------- #
# EXPLAIN marker
# --------------------------------------------------------------------------- #
SQL = "SELECT * FROM STREAM sl TP LEFT OUTER JOIN STREAM sr ON sl.Key = sr.Key"


def _explain_with(options) -> str:
    from repro.datasets import ReplayConfig, stream_def

    catalog, left, right = query_catalog(23, left_size=20, right_size=20)
    engine = Engine(options=options)
    engine.register_stream("sl", stream_def(left, ReplayConfig(disorder=3, seed=23)))
    engine.register_stream("sr", stream_def(right, ReplayConfig(disorder=3, seed=24)))
    return engine.explain_sql(SQL)


def test_explain_marks_checkpointed_recovery():
    plan = _explain_with(
        ExecutionOptions(
            transport="sockets", partitions=2, restart_limit=1, checkpoint_interval=2.0
        )
    )
    assert "[recoverable ckpt=2s]" in plan


def test_explain_marks_replay_from_zero_recovery():
    plan = _explain_with(
        ExecutionOptions(transport="sockets", partitions=2, restart_limit=1)
    )
    assert "[recoverable replay-from-zero]" in plan


def test_explain_has_no_marker_without_a_restart_budget():
    plan = _explain_with(ExecutionOptions(transport="sockets", partitions=2))
    assert "recoverable" not in plan


# --------------------------------------------------------------------------- #
# configurable seat timeout
# --------------------------------------------------------------------------- #
def test_socket_seat_timeout_raises_with_the_seat_address():
    from repro.recovery import SeatFailure
    from repro.runtime.sockets import SocketSession
    from repro.runtime.transport import RuntimeJob
    from tests.conftest import shard_specs

    catalog, *_ = query_catalog(23, left_size=10, right_size=10)
    _graph, (spec,), _stages = shard_specs(catalog)
    session = SocketSession(
        RuntimeJob((spec,), micro_batch_size=1, result_timeout=0.3)
    )
    try:
        # Never send done(): the worker keeps waiting for elements, so the
        # driver's result wait must trip the configured timeout instead of
        # blocking forever (the historical behaviour of timeout=None).
        with pytest.raises(SeatFailure) as excinfo:
            session.finish_seat(0)
        failure = excinfo.value
        assert failure.seat == 0
        assert failure.cause == "timeout"
        assert failure.address and ":" in failure.address
        assert "produced no result" in str(failure)
    finally:
        session.release()


def test_seat_timeout_option_flows_through_a_full_socket_run():
    """A generous seat_timeout must not disturb a healthy run — the knob is
    plumbed from ExecutionOptions through the job into every session."""
    catalog, *_ = query_catalog(23, left_size=30, right_size=30)
    options = ExecutionOptions(
        transport="sockets", partitions=2, micro_batch_size=8, seat_timeout=60.0
    )
    result = StreamQuery(catalog, "left_outer", "l", "r", ON, config=options).run(
        merge_seed=23
    )
    assert result.workers == "sockets"
    assert result.outputs_emitted > 0
