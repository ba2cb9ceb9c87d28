"""Engine integration of dataflow graphs: multi-join SQL, EXPLAIN, catalog."""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.core import tp_anti_join, tp_left_outer_join, tp_right_outer_join
from repro.dataflow import NodeSpec
from repro.datasets import ReplayConfig, stream_def
from repro.engine import (
    CatalogError,
    Engine,
    PlanError,
    StreamScan,
    TPJoin,
    parse_query,
)
from repro.lineage import canonical
from repro.relation import TPRelation, equi_join_on

from tests.dataflow.conftest import make_relation


def rows(relation):
    return sorted(
        repr((t.fact, t.start, t.end, str(canonical(t.lineage)))) for t in relation
    )


@pytest.fixture()
def triple():
    return (
        make_relation("a", 18, 1),
        make_relation("b", 18, 2),
        make_relation("c", 12, 3),
    )


@pytest.fixture()
def dataflow_engine(triple):
    a, b, c = triple
    engine = Engine()
    for offset, (name, relation) in enumerate((("sa", a), ("sb", b), ("sc", c))):
        engine.register_stream(
            name, stream_def(relation, ReplayConfig(disorder=4, seed=offset))
        )
    return engine


CHAIN_SQL = (
    "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Key = sb.Key "
    "TP RIGHT OUTER JOIN STREAM sc ON sa.Key = sc.Key"
)


def chain_batch(a, b, c):
    theta_ab = equi_join_on(a.schema, b.schema, [("Key", "Key")])
    n1 = tp_anti_join(a, b, theta_ab, compute_probabilities=False)
    n1 = TPRelation(n1.schema, n1.tuples, n1.events, name="n1", check_constraint=False)
    theta_nc = equi_join_on(n1.schema, c.schema, [("Key", "Key")])
    return tp_right_outer_join(n1, c, theta_nc, compute_probabilities=False)


def test_parser_builds_left_deep_chain():
    parsed = parse_query(CHAIN_SQL)
    assert len(parsed.joins) == 2
    outer = parsed.plan
    assert isinstance(outer, TPJoin) and outer.kind.value == "right_outer"
    inner = outer.left
    assert isinstance(inner, TPJoin) and inner.kind.value == "anti"
    assert isinstance(inner.left, StreamScan) and isinstance(outer.right, StreamScan)
    # First-join surface fields stay backward compatible.
    assert parsed.right_relation == "sb" and parsed.join_kind.value == "anti"


def test_chained_stream_sql_matches_batch(dataflow_engine, triple):
    a, b, c = triple
    result = dataflow_engine.execute_sql(CHAIN_SQL, compute_probabilities=False)
    assert rows(result) == rows(chain_batch(a, b, c))


def test_explain_marks_dataflow_node_count(dataflow_engine):
    text = dataflow_engine.explain_sql(CHAIN_SQL)
    assert "[dataflow 2-node]" in text
    assert "DataflowJoin [anti→right_outer]" in text
    assert "ContinuousScan sa" in text and "ContinuousScan sc" in text


def test_explain_marks_partition_degrees(triple):
    """Every equi-θ node of a SQL stream join runs
    ``ExecutionOptions.partitions`` workers and EXPLAIN renders the
    per-node degrees."""
    a, b, c = triple
    engine = Engine(options=ExecutionOptions(partitions=3, transport="threads"))
    for offset, (name, relation) in enumerate((("sa", a), ("sb", b), ("sc", c))):
        engine.register_stream(
            name, stream_def(relation, ReplayConfig(disorder=4, seed=offset))
        )
    assert "[dataflow 2-node, parts=3/3]" in engine.explain_sql(CHAIN_SQL)
    result = engine.execute_sql(CHAIN_SQL, compute_probabilities=False)
    assert rows(result) == rows(chain_batch(a, b, c))


def test_early_emit_config_routes_binary_join_through_dataflow(triple):
    a, b, _c = triple
    engine = Engine(options=ExecutionOptions(early_emit=True))
    engine.register_stream("sa", stream_def(a, ReplayConfig(disorder=4, seed=0)))
    engine.register_stream("sb", stream_def(b, ReplayConfig(disorder=4, seed=1)))
    sql = "SELECT * FROM STREAM sa TP LEFT OUTER JOIN STREAM sb ON sa.Key = sb.Key"
    assert "[dataflow 1-node]" in engine.explain_sql(sql)
    theta = equi_join_on(a.schema, b.schema, [("Key", "Key")])
    batch = tp_left_outer_join(a, b, theta, compute_probabilities=False)
    assert rows(engine.execute_sql(sql, compute_probabilities=False)) == rows(batch)


def test_pinned_ta_rejected_anywhere_in_a_stream_chain(dataflow_engine):
    with pytest.raises(PlanError):
        dataflow_engine.execute_sql(CHAIN_SQL + " USING TA")


def test_mixed_chain_rejected(dataflow_engine, triple):
    a, *_ = triple
    dataflow_engine.register("stored", a)
    with pytest.raises(PlanError):
        dataflow_engine.execute_sql(
            "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Key = sb.Key "
            "TP ANTI JOIN stored ON sa.Key = stored.Key"
        )


def test_where_filters_settled_dataflow_output(dataflow_engine):
    result = dataflow_engine.execute_sql(
        CHAIN_SQL + " WHERE Serial = 'a3'", compute_probabilities=False
    )
    assert all(t.fact[1] in ("a3", None) for t in result)


def test_dataflow_query_registration_round_trips(dataflow_engine, triple):
    a, b, c = triple
    nodes = [
        NodeSpec("n1", "anti", "sa", "sb", (("Key", "Key"),)),
        NodeSpec("n2", "right_outer", "n1", "sc", (("Key", "Key"),)),
    ]
    query = dataflow_engine.dataflow_query("monitor", nodes)
    assert dataflow_engine.catalog.lookup_query("monitor") is query
    assert dataflow_engine.catalog.query_names() == ["monitor"]
    result = query.run(merge_seed=1)
    assert rows(result.relation) == rows(chain_batch(a, b, c))
    with pytest.raises(CatalogError):
        dataflow_engine.dataflow_query("monitor", nodes)
    with pytest.raises(CatalogError):
        dataflow_engine.catalog.lookup_query("nope")


def test_chained_on_clause_qualifier_binds_to_the_named_relation():
    """`sb.Loc = sc.Loc` must join on sb's Loc, not sa's clashing Loc."""
    from repro import Schema, TPRelation

    a = TPRelation.from_rows(
        Schema.of("Id", "Loc"), [(1, "X", "a1", 0, 10, 0.9)], name="sa"
    )
    b = TPRelation.from_rows(
        Schema.of("Id", "Loc"), [(1, "Y", "b1", 0, 10, 0.8)], name="sb"
    )
    c = TPRelation.from_rows(Schema.of("Loc",), [("Y", "c1", 0, 10, 0.7)], name="sc")
    for streams in (True, False):
        engine = Engine()
        if streams:
            for name, relation in (("sa", a), ("sb", b), ("sc", c)):
                engine.register_stream(name, stream_def(relation, ReplayConfig()))
            prefix = "STREAM "
        else:
            for name, relation in (("sa", a), ("sb", b), ("sc", c)):
                engine.register(name, relation)
            prefix = ""
        result = engine.execute_sql(
            f"SELECT * FROM {prefix}sa TP INNER JOIN {prefix}sb ON sa.Id = sb.Id "
            f"TP INNER JOIN {prefix}sc ON sb.Loc = sc.Loc",
            compute_probabilities=False,
        )
        # b's Loc is 'Y' and c's Loc is 'Y': exactly one joined row must
        # survive.  (Binding 'Loc' to sa's 'X' would return nothing.)
        assert len(result) == 1, f"streams={streams}"
        # An unknown qualified reference is a plan-time error, not a silent bind.
        with pytest.raises(PlanError):
            engine.execute_sql(
                f"SELECT * FROM {prefix}sa TP INNER JOIN {prefix}sb ON sa.Id = sb.Id "
                f"TP INNER JOIN {prefix}sc ON sb.Nope = sc.Loc"
            )


def test_relation_chain_still_plans_serially(dataflow_engine, triple):
    a, b, c = triple
    dataflow_engine.register("ra", a)
    dataflow_engine.register("rb", b)
    dataflow_engine.register("rc", c)
    result = dataflow_engine.execute_sql(
        "SELECT * FROM ra TP ANTI JOIN rb ON ra.Key = rb.Key "
        "TP RIGHT OUTER JOIN rc ON ra.Key = rc.Key",
        compute_probabilities=False,
    )
    assert rows(result) == rows(chain_batch(a, b, c))
