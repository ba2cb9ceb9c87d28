"""Every stream join plans to one ``DataflowJoin`` with one partition rule.

Across the five Table II kinds, early emission on and off, and one or three
partitions, the SQL stream path plans one ``DataflowJoin`` whose node runs
``ExecutionOptions.partitions`` workers and settles to the batch join, with
bitwise probabilities when they are materialised.  A two-join chain takes
the same degree at every node.  EXPLAIN renders the degree, and names the
transport the run actually uses.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.core import tp_join
from repro.dataflow import assert_converged, identity_rows
from repro.dataflow import DataflowQuery
from repro.engine import DataflowJoin, Engine, Planner, PlannerConfig, parse_query
from repro.relation import equi_join_on

from tests.dataflow.conftest import make_stream_catalog

SPELLING = {
    "anti": "ANTI",
    "inner": "INNER",
    "left_outer": "LEFT OUTER",
    "right_outer": "RIGHT OUTER",
    "full_outer": "FULL OUTER",
}
ON = [("Key", "Key")]
CHAIN_SQL = (
    "SELECT * FROM STREAM a TP LEFT OUTER JOIN STREAM b ON a.Key = b.Key "
    "TP FULL OUTER JOIN STREAM c ON a.Key = c.Key"
)


def join_sql(kind: str) -> str:
    return f"SELECT * FROM STREAM a TP {SPELLING[kind]} JOIN STREAM b ON a.Key = b.Key"


def run_plan(catalog, options: ExecutionOptions, sql: str):
    """Plan ``sql`` as the engine does, run its dataflow as the engine's
    evaluator does, and return the plan node and the run's result."""
    plan = Planner(catalog, PlannerConfig(stream_config=options)).plan(
        parse_query(sql).plan
    )
    assert isinstance(plan, DataflowJoin)
    return plan, DataflowQuery(catalog, plan.nodes, config=plan.options).run()


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("kind", sorted(SPELLING))
def test_a_stream_join_is_one_dataflow_join_settling_to_the_batch_join(kind, early, parts):
    catalog, a, b, _c = make_stream_catalog(seed=3)
    options = ExecutionOptions(
        partitions=parts, early_emit=early, materialize_probabilities=True, metrics=True
    )
    plan, result = run_plan(catalog, options, join_sql(kind))
    assert len(plan.nodes) == 1
    assert tuple(node.partitions for node in plan.nodes) == (parts,)
    assert len(result.metrics_snapshots) == parts  # one snapshot per worker
    assert result.backend == ("inline" if parts == 1 else "threads")
    batch = tp_join(kind, a, b, equi_join_on(a.schema, b.schema, ON))
    assert len(batch) > 0
    assert identity_rows(result.relation) == identity_rows(batch)


@pytest.mark.parametrize("early", [False, True])
def test_a_join_chain_takes_the_partition_option_at_every_node(early):
    catalog, *_ = make_stream_catalog(seed=4)
    options = ExecutionOptions(partitions=3, early_emit=early, metrics=True)
    plan, result = run_plan(catalog, options, CHAIN_SQL)
    assert tuple(node.partitions for node in plan.nodes) == (3, 3)
    assert len(result.metrics_snapshots) == 6
    assert_converged(result, catalog, plan.nodes)


@pytest.mark.parametrize("early", [False, True])
def test_explain_renders_the_partition_option_whatever_the_emission(early):
    catalog, *_ = make_stream_catalog(seed=5)
    engine = Engine(options=ExecutionOptions(partitions=3, early_emit=early))
    for name in catalog.stream_names():
        engine.register_stream(name, catalog.lookup_stream(name))
    assert "[dataflow 1-node, parts=3]" in engine.explain_sql(join_sql("left_outer"))
    assert "[dataflow 2-node, parts=3/3]" in engine.explain_sql(CHAIN_SQL)


def test_explain_names_the_transport_the_run_uses():
    catalog, *_ = make_stream_catalog(seed=6)
    options = ExecutionOptions(transport="processes", early_emit=True)
    engine = Engine(options=options)
    for name in catalog.stream_names():
        engine.register_stream(name, catalog.lookup_stream(name))
    # One worker runs inline whatever the option says, and EXPLAIN agrees.
    text = engine.explain_sql(join_sql("anti"))
    assert "workers=inline" in text
    assert "processes" not in text
    assert run_plan(catalog, options, join_sql("anti"))[1].backend == "inline"
    # More than one worker leaves the process, and EXPLAIN says where.
    parted = Engine(options=ExecutionOptions(transport="processes", partitions=2))
    for name in catalog.stream_names():
        parted.register_stream(name, catalog.lookup_stream(name))
    text = parted.explain_sql(join_sql("anti"))
    assert "workers=processes" in text
    assert "[dataflow 1-node, parts=2, transport=processes]" in text
