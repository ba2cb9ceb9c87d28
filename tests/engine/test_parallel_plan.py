"""Planner integration of process-parallel joins: choice, EXPLAIN, equality."""

from __future__ import annotations

import pytest

from repro.datasets import meteo_pair
from repro.engine import Engine, JoinStrategy, ParallelNJJoinOperator, PlanError
from repro.parallel import ParallelConfig
from tests.conftest import canonical_rows

SQL = "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Metric = b.Metric"

EAGER = ParallelConfig(max_workers=4, state_per_worker=500.0, min_tuples=50)


@pytest.fixture()
def workload():
    return meteo_pair(300, seed=5)


def make_engine(pair, parallel=None, default_strategy=JoinStrategy.NJ):
    engine = Engine(default_strategy=default_strategy, parallel_config=parallel)
    engine.register("a", pair[0])
    engine.register("b", pair[1])
    return engine


def test_planner_chooses_parallel_join_and_explain_shows_worker_count(workload):
    engine = make_engine(workload, parallel=EAGER)
    text = engine.explain_sql(SQL)
    assert "ParallelNJJoin" in text
    assert "[parallel n=4]" in text


def test_parallel_plan_result_equals_serial_plan_result(workload):
    parallel_result = make_engine(workload, parallel=EAGER).execute_sql(SQL)
    serial_result = make_engine(workload).execute_sql(SQL)
    assert canonical_rows(parallel_result) == canonical_rows(serial_result)


def test_planner_defaults_to_serial_without_parallel_config(workload):
    text = make_engine(workload).explain_sql(SQL)
    assert "ParallelNJJoin" not in text
    assert "[parallel" not in text


def test_small_inputs_stay_serial_under_the_cost_model(workload):
    shy = ParallelConfig(max_workers=4, state_per_worker=500.0, min_tuples=10_000)
    text = make_engine(workload, parallel=shy).explain_sql(SQL)
    assert "ParallelNJJoin" not in text


def test_pure_temporal_joins_cannot_be_sharded(workload):
    from repro.engine import JoinKind, Scan, TPJoin

    engine = make_engine(workload, parallel=EAGER)
    plan = TPJoin(Scan("a"), Scan("b"), JoinKind.ANTI, (), JoinStrategy.AUTO)
    text = engine.explain(plan)
    assert "ParallelNJJoin" not in text


def test_pinned_baseline_strategies_are_never_parallelised(workload):
    engine = make_engine(workload, parallel=EAGER)
    text = engine.explain_sql(
        "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Metric = b.Metric USING TA"
    )
    assert "TAJoin" in text
    assert "ParallelNJJoin" not in text


def test_parallel_operator_validates_construction(workload):
    engine = make_engine(workload, parallel=EAGER)
    physical = engine._planner.plan  # noqa: SLF001 - exercising planner output
    from repro.engine import parse_query

    operator = physical(parse_query(SQL).plan)
    assert isinstance(operator, ParallelNJJoinOperator)
    assert operator.parallel_workers == 4
    with pytest.raises(PlanError):
        ParallelNJJoinOperator(
            operator.children()[0], operator.children()[1], operator._kind, (), None, 4
        )
    with pytest.raises(PlanError):
        ParallelNJJoinOperator(
            operator.children()[0],
            operator.children()[1],
            operator._kind,
            (("Metric", "Metric"),),
            None,
            1,
        )


def test_continuous_explain_carries_the_partition_degree(workload):
    from repro.datasets import ReplayConfig, stream_def
    from repro import ExecutionOptions

    engine = Engine(options=ExecutionOptions(partitions=3))
    engine.register_stream("sa", stream_def(workload[0], ReplayConfig()))
    engine.register_stream("sb", stream_def(workload[1], ReplayConfig()))
    text = engine.explain_sql(
        "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Metric = sb.Metric"
    )
    assert "[continuous] [dataflow 1-node, parts=3]" in text
