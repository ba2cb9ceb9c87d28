"""Tests for the catalog, planner and executor."""

from __future__ import annotations

import pytest

from repro import tp_left_outer_join
from repro.engine import (
    Catalog,
    CatalogError,
    Engine,
    JoinKind,
    JoinStrategy,
    Planner,
    Project,
    Scan,
    Select,
    TPJoin,
    Timeslice,
    execute_sql,
    explain_logical,
    explain_plan,
)
from repro.temporal import Interval
from tests.conftest import canonical_rows


@pytest.fixture()
def engine(wants_to_visit, hotel_availability) -> Engine:
    built = Engine()
    built.register("a", wants_to_visit)
    built.register("b", hotel_availability)
    return built


class TestCatalog:
    def test_register_and_lookup(self, wants_to_visit):
        catalog = Catalog()
        catalog.register("a", wants_to_visit)
        assert catalog.lookup("a") is wants_to_visit
        assert "a" in catalog
        assert catalog.names() == ["a"]

    def test_duplicate_registration_rejected(self, wants_to_visit):
        catalog = Catalog()
        catalog.register("a", wants_to_visit)
        with pytest.raises(CatalogError):
            catalog.register("a", wants_to_visit)
        catalog.register("a", wants_to_visit, replace=True)

    def test_unknown_lookup(self):
        with pytest.raises(CatalogError):
            Catalog().lookup("missing")


class TestPlanner:
    def test_resolves_auto_to_nj(self, engine):
        planner = Planner(engine.catalog)
        assert planner.resolve_strategy(JoinStrategy.AUTO) is JoinStrategy.NJ
        assert planner.resolve_strategy(JoinStrategy.TA) is JoinStrategy.TA

    def test_physical_plan_uses_nj_join_by_default(self, engine):
        planner = Planner(engine.catalog)
        physical = planner.plan(
            TPJoin(Scan("a"), Scan("b"), JoinKind.LEFT_OUTER, (("Loc", "Loc"),))
        )
        assert isinstance(physical, TPJoin)
        assert physical.strategy is JoinStrategy.NJ

    def test_selection_pushdown_below_join(self, engine):
        planner = Planner(engine.catalog)
        logical = Select(
            TPJoin(Scan("a"), Scan("b"), JoinKind.LEFT_OUTER, (("Loc", "Loc"),)),
            "Name",
            "Ann",
        )
        physical = planner.plan(logical)
        # after pushdown the top node is the join, with the filter below it
        assert isinstance(physical, TPJoin)
        assert physical.strategy is JoinStrategy.NJ
        rendered = explain_plan(physical, engine.catalog)
        assert rendered.index("NJJoin") < rendered.index("Filter")

    def test_unknown_relation_in_plan(self, engine):
        planner = Planner(engine.catalog)
        with pytest.raises(CatalogError):
            planner.plan(Scan("missing"))


class TestExecutor:
    def test_sql_left_outer_join_matches_the_library_operator(
        self, engine, wants_to_visit, hotel_availability, loc_theta
    ):
        via_sql = engine.execute_sql("SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc")
        direct = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert canonical_rows(via_sql) == canonical_rows(direct)

    def test_every_strategy_gives_the_same_answer(self, engine):
        base = "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc USING {}"
        results = [
            engine.execute_sql(base.format(strategy)) for strategy in ("NJ", "TA", "NAIVE")
        ]
        assert canonical_rows(results[0]) == canonical_rows(results[1]) == canonical_rows(results[2])

    def test_anti_join_via_sql(self, engine):
        result = engine.execute_sql("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
        assert len(result) == 5
        assert result.schema.attributes == ("Name", "Loc")

    def test_where_and_during(self, engine):
        result = engine.execute_sql(
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc WHERE Name = 'Jim' DURING [8, 10)"
        )
        assert len(result) == 1
        assert result.tuples[0].interval == Interval(8, 10)

    def test_projection_via_sql(self, engine):
        result = engine.execute_sql("SELECT Name FROM a")
        assert result.schema.attributes == ("Name",)
        assert {t.fact for t in result} == {("Ann",), ("Jim",)}

    def test_execute_sql_convenience_function(self, wants_to_visit, hotel_availability):
        result = execute_sql(
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc",
            {"a": wants_to_visit, "b": hotel_availability},
        )
        assert len(result) == 7

    def test_pinned_strategy(self, wants_to_visit, hotel_availability):
        result = execute_sql(
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc USING TA",
            {"a": wants_to_visit, "b": hotel_availability},
        )
        assert len(result) == 7

    def test_probabilities_filled_by_default(self, engine):
        result = engine.execute_sql("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
        assert all(t.probability is not None for t in result)

    def test_right_outer_join_via_ta_strategy(self, engine):
        nj = engine.execute_sql("SELECT * FROM a TP RIGHT OUTER JOIN b ON a.Loc = b.Loc USING NJ")
        ta = engine.execute_sql("SELECT * FROM a TP RIGHT OUTER JOIN b ON a.Loc = b.Loc USING TA")
        assert canonical_rows(nj) == canonical_rows(ta)


class TestExplain:
    def test_explain_mentions_both_plans(self, engine):
        text = engine.explain_sql("SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc")
        assert "Logical plan:" in text
        assert "Physical plan:" in text
        assert "NJJoin" in text
        assert "Scan a" in text

    def test_explain_logical_tree_shape(self):
        plan = Project(Timeslice(Scan("a"), Interval(1, 5)), ("Name",))
        text = explain_logical(plan)
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip().startswith("Timeslice")
        assert lines[2].strip().startswith("Scan")

    def test_ta_strategy_shows_in_physical_plan(self, engine):
        text = engine.explain_sql(
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc USING TA"
        )
        assert "TAJoin" in text
