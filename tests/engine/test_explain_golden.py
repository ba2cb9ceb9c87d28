"""The full physical EXPLAIN text of a stored-relation and a stream plan.

EXPLAIN is user-visible output: one operator per line, indented by depth,
markers after two spaces, and no cost estimate anywhere.
"""

from __future__ import annotations

from repro import ExecutionOptions
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
