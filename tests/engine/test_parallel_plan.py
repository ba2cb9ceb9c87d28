"""Joins of stored relations plan serially, with or without a ParallelConfig.

A ``ParallelConfig`` sizes stream-join stages only
(``tests/engine/test_dataflow_sql.py`` covers that fan-out); K processes
for a stored-relation join go through ``parallel_tp_join``.
"""

from __future__ import annotations

from repro.datasets import meteo_pair
from repro.engine import Engine, NJJoinOperator, parse_query
from repro.parallel import ParallelConfig
from tests.conftest import canonical_rows

SQL = "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Metric = b.Metric"


def test_parallel_config_leaves_stored_relation_joins_serial():
    pair = meteo_pair(300, seed=5)
    engines = []
    for config in (
        ParallelConfig(max_workers=4, state_per_worker=1.0, min_tuples=1),
        None,
    ):
        engine = Engine(parallel_config=config)
        engine.register("a", pair[0])
        engine.register("b", pair[1])
        engines.append(engine)
    eager, serial = engines
    operator = eager._planner.plan(parse_query(SQL).plan)  # noqa: SLF001
    assert type(operator) is NJJoinOperator
    assert "[parallel" not in eager.explain_sql(SQL)
    assert canonical_rows(eager.execute_sql(SQL)) == canonical_rows(serial.execute_sql(SQL))
