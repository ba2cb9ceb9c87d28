"""The engine against the one join table: kinds, strategies, output schema.

Three things that used to be restated per layer and could drift apart:
which join kinds exist, which (strategy, kind) pairs the engine evaluates,
and how a clashing right-hand column is named.
"""

from __future__ import annotations

import pytest

from repro import Schema, TPRelation, equi_join_on, tp_left_outer_join
from repro.baselines.naive import NAIVE_JOINS
from repro.baselines.temporal_alignment import TA_JOINS
from repro.core import BATCH_JOINS, JOIN_KINDS, REVERSE_KINDS, TABLE_II
from repro.dataflow.convergence import identity_rows
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Engine, JoinKind, PlanError
from repro.engine.sql import _JOIN_KINDS as SQL_JOIN_KINDS

SQL_SPELLING = {
    "anti": "ANTI",
    "inner": "INNER",
    "left_outer": "LEFT OUTER",
    "right_outer": "RIGHT OUTER",
    "full_outer": "FULL OUTER",
}


def test_every_layer_knows_the_same_kinds():
    """A sixth kind added in one place fails here."""
    kinds = set(TABLE_II)
    assert kinds == {kind.value for kind in JoinKind}
    assert kinds == JOIN_KINDS == set(BATCH_JOINS) == set(SQL_SPELLING)
    assert kinds == {kind.value for kind in SQL_JOIN_KINDS.values()}
    assert REVERSE_KINDS == {kind for kind, (_, reverse) in TABLE_II.items() if reverse}
    assert set(TA_JOINS) <= kinds and set(NAIVE_JOINS) <= kinds


@pytest.fixture()
def engine(wants_to_visit, hotel_availability) -> Engine:
    built = Engine()
    built.register("a", wants_to_visit)
    built.register("b", hotel_availability)
    return built


@pytest.mark.parametrize("kind", sorted(SQL_SPELLING))
@pytest.mark.parametrize("strategy", ["NJ", "TA", "NAIVE"])
def test_strategy_by_kind_answers_like_nj_or_refuses_by_name(engine, strategy, kind):
    sql = f"SELECT * FROM a TP {SQL_SPELLING[kind]} JOIN b ON a.Loc = b.Loc"
    expected = identity_rows(engine.execute_sql(sql + " USING NJ"))
    try:
        result = engine.execute_sql(f"{sql} USING {strategy}")
    except PlanError as error:
        assert strategy != "NJ"
        assert f"{strategy}Join".lower() in str(error).lower() and kind in str(error)
    else:
        assert identity_rows(result) == expected


def test_one_spelling_of_the_clashing_column(wants_to_visit, hotel_availability, loc_theta):
    """Batch join, SQL over relations and SQL over streams name it alike."""
    engine = Engine()
    engine.register("a", wants_to_visit)
    engine.register("b", hotel_availability)
    engine.register_stream("a", stream_def(wants_to_visit, ReplayConfig()))
    engine.register_stream("b", stream_def(hotel_availability, ReplayConfig()))
    batch = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
    stored = engine.execute_sql("SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc")
    streamed = engine.execute_sql(
        "SELECT * FROM STREAM a TP LEFT OUTER JOIN STREAM b ON a.Loc = b.Loc"
    )
    assert (
        batch.schema.attributes
        == stored.schema.attributes
        == streamed.schema.attributes
        == ("Name", "Loc", "Hotel", "b.Loc")
    )


def test_joining_one_relation_twice_keeps_names_unique(engine):
    chained = engine.execute_sql(
        "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc "
        "TP LEFT OUTER JOIN b ON a.Loc = b.Loc"
    )
    assert chained.schema.attributes == (
        "Name", "Loc", "Hotel", "b.Loc", "b.Hotel", "b2.Loc",
    )


def test_a_pushed_down_selection_does_not_rename_the_column(engine):
    """The right input keeps its name under a filter the planner pushes in."""
    selected = engine.execute_sql(
        "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc WHERE Hotel = 'hotel1'"
    )
    assert selected.schema.attributes == ("Name", "Loc", "Hotel", "b.Loc")


def test_an_unnamed_right_input_falls_back_to_s():
    unnamed = TPRelation.from_rows(Schema.of("Loc"), [("ZAK", "c1", 0, 5, 0.5)])
    named = TPRelation.from_rows(Schema.of("Loc"), [("ZAK", "d1", 0, 5, 0.5)], name="d")
    theta = equi_join_on(named.schema, unnamed.schema, [("Loc", "Loc")])
    assert tp_left_outer_join(named, unnamed, theta).schema.attributes == ("Loc", "s.Loc")
