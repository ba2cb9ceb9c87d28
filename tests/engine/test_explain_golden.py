"""The full physical EXPLAIN text of stored-relation and stream plans.

EXPLAIN is user-visible output: one operator per line, indented by depth,
markers after two spaces, and no cost estimate anywhere.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions, Schema, TPRelation
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Engine


def physical(engine: Engine, sql: str) -> str:
    return engine.explain_sql(sql).split("Physical plan:\n")[1]


def test_stored_relation_plan(wants_to_visit, hotel_availability):
    engine = Engine()
    engine.register("a", wants_to_visit)
    engine.register("b", hotel_availability)
    sql = "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann'"
    assert physical(engine, sql) == (
        "NJJoin [left_outer] on Loc = Loc\n"
        "  Filter Name = 'Ann'\n"
        "    Scan a (2 tuples)\n"
        "  Scan b (3 tuples)"
    )


def test_stream_join_plan(wants_to_visit, hotel_availability):
    engine = Engine(options=ExecutionOptions(partitions=2, transport="threads"))
    engine.register_stream("a", stream_def(wants_to_visit, ReplayConfig()))
    engine.register_stream("b", stream_def(hotel_availability, ReplayConfig()))
    sql = "SELECT * FROM STREAM a TP LEFT OUTER JOIN STREAM b ON a.Loc = b.Loc"
    assert physical(engine, sql) == (
        "DataflowJoin [left_outer] sink=node1 parts=2 (watermark-only, "
        "workers=threads)  [continuous] [dataflow 1-node, parts=2]\n"
        "  ContinuousScan a (watermarked replay)  [continuous]\n"
        "  ContinuousScan b (watermarked replay)  [continuous]"
    )


def ratings() -> TPRelation:
    """A third relation whose ``Loc`` clashes with both ``a`` and ``b``."""
    return TPRelation.from_rows(
        Schema.of("Loc", "Rating"),
        [("ZAK", 4, "c1", 3, 9, 0.5), ("WEN", 2, "c2", 6, 11, 0.4)],
        name="c",
    )


@pytest.fixture()
def stored(wants_to_visit, hotel_availability) -> Engine:
    engine = Engine()
    engine.register("a", wants_to_visit)
    engine.register("b", hotel_availability)
    engine.register("c", ratings())
    return engine


@pytest.fixture()
def streamed(wants_to_visit, hotel_availability) -> Engine:
    engine = Engine(options=ExecutionOptions(early_emit=True))
    for name, relation in (("a", wants_to_visit), ("b", hotel_availability), ("c", ratings())):
        engine.register_stream(name, stream_def(relation, ReplayConfig()))
    return engine


def test_timeslice_plan(stored):
    sql = "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc DURING [4, 8)"
    assert physical(stored, sql) == (
        "Timeslice [4,8)\n"
        "  NJJoin [left_outer] on Loc = Loc\n"
        "    Scan a (2 tuples)\n"
        "    Scan b (3 tuples)"
    )


def test_project_plan(stored):
    sql = "SELECT Name, Hotel FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc"
    assert physical(stored, sql) == (
        "Project Name, Hotel\n"
        "  NJJoin [left_outer] on Loc = Loc\n"
        "    Scan a (2 tuples)\n"
        "    Scan b (3 tuples)"
    )


@pytest.mark.parametrize(
    "kind, strategy, label",
    [("FULL OUTER", "TA", "TAJoin [full_outer]"), ("ANTI", "NAIVE", "NaiveJoin [anti]")],
)
def test_pinned_strategy_plans(stored, kind, strategy, label):
    sql = f"SELECT * FROM a TP {kind} JOIN b ON a.Loc = b.Loc USING {strategy}"
    assert physical(stored, sql) == (
        f"{label} on Loc = Loc\n"
        "  Scan a (2 tuples)\n"
        "  Scan b (3 tuples)"
    )


def test_three_relation_chain_with_a_clashing_column(stored):
    sql = (
        "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc "
        "TP FULL OUTER JOIN c ON a.Loc = c.Loc"
    )
    assert physical(stored, sql) == (
        "NJJoin [full_outer] on Loc = Loc\n"
        "  NJJoin [left_outer] on Loc = Loc\n"
        "    Scan a (2 tuples)\n"
        "    Scan b (3 tuples)\n"
        "  Scan c (2 tuples)"
    )


def test_early_emitting_stream_chain_plan(streamed):
    sql = (
        "SELECT * FROM STREAM a TP LEFT OUTER JOIN STREAM b ON a.Loc = b.Loc "
        "TP FULL OUTER JOIN STREAM c ON a.Loc = c.Loc"
    )
    assert physical(streamed, sql) == (
        "DataflowJoin [left_outer→full_outer] sink=node2 (early-emit, "
        "workers=threads)  [continuous] [dataflow 2-node]\n"
        "  ContinuousScan a (watermarked replay)  [continuous]\n"
        "  ContinuousScan b (watermarked replay)  [continuous]\n"
        "  ContinuousScan c (watermarked replay)  [continuous]"
    )


def test_filter_above_a_stream_join_plan(streamed):
    sql = "SELECT * FROM STREAM a TP INNER JOIN STREAM b ON a.Loc = b.Loc WHERE Name = 'Ann'"
    assert physical(streamed, sql) == (
        "Filter Name = 'Ann'\n"
        "  DataflowJoin [inner] sink=node1 (early-emit, workers=inline)  "
        "[continuous] [dataflow 1-node]\n"
        "    ContinuousScan a (watermarked replay)  [continuous]\n"
        "    ContinuousScan b (watermarked replay)  [continuous]"
    )
