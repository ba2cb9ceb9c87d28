"""Tests for the SQL-ish parser."""

from __future__ import annotations

import pytest

from repro.engine import (
    JoinKind,
    JoinStrategy,
    Project,
    Scan,
    Select,
    SQLSyntaxError,
    Timeslice,
    TPJoin,
    parse_query,
    tokenize,
)
from repro.temporal import Interval


class TestTokenizer:
    def test_basic_tokens(self):
        assert tokenize("SELECT * FROM a") == ["SELECT", "*", "FROM", "a"]

    def test_quoted_strings_and_punctuation(self):
        tokens = tokenize("WHERE Name = 'Ann Smith' AND x = 3")
        assert "'Ann Smith'" in tokens
        assert "=" in tokens

    def test_interval_tokens(self):
        assert tokenize("DURING [4, 8)") == ["DURING", "[", "4", ",", "8", ")"]

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT ; FROM a")


class TestParsing:
    def test_simple_scan(self):
        plan = parse_query("SELECT * FROM a").plan
        assert plan == Scan("a")

    def test_left_outer_join(self):
        plan = parse_query("SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc").plan
        assert isinstance(plan, TPJoin)
        assert plan.kind is JoinKind.LEFT_OUTER
        assert plan.on == (("Loc", "Loc"),)
        assert plan.left == Scan("a") and plan.right == Scan("b")

    def test_anti_join(self):
        plan = parse_query("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc").plan
        assert isinstance(plan, TPJoin)
        assert plan.kind is JoinKind.ANTI

    def test_right_and_full_outer_joins(self):
        assert parse_query("SELECT * FROM a TP RIGHT OUTER JOIN b ON a.X = b.Y").plan.kind is JoinKind.RIGHT_OUTER
        assert parse_query("SELECT * FROM a TP FULL OUTER JOIN b ON a.X = b.Y").plan.kind is JoinKind.FULL_OUTER

    def test_inner_join(self):
        assert parse_query("SELECT * FROM a TP INNER JOIN b ON a.X = b.Y").plan.kind is JoinKind.INNER

    def test_reversed_condition_order_is_normalised(self):
        plan = parse_query("SELECT * FROM a TP LEFT OUTER JOIN b ON b.Loc = a.Place").plan
        assert plan.on == (("Place", "Loc"),)

    def test_multiple_join_conditions(self):
        plan = parse_query(
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.X = b.Y AND a.Z = b.W"
        ).plan
        assert plan.on == (("X", "Y"), ("Z", "W"))

    def test_where_clause_wraps_plan_in_select(self):
        plan = parse_query("SELECT * FROM a TP ANTI JOIN b ON a.X = b.Y WHERE Name = 'Ann'").plan
        assert isinstance(plan, Select)
        assert plan.attribute == "Name"
        assert plan.value == "Ann"

    def test_where_with_numeric_literal(self):
        plan = parse_query("SELECT * FROM a WHERE Count = 3").plan
        assert isinstance(plan, Select)
        assert plan.value == 3

    def test_during_clause(self):
        plan = parse_query("SELECT * FROM a DURING [4, 8)").plan
        assert isinstance(plan, Timeslice)
        assert plan.interval == Interval(4, 8)

    def test_projection(self):
        plan = parse_query("SELECT Name, Loc FROM a").plan
        assert isinstance(plan, Project)
        assert plan.attributes == ("Name", "Loc")

    def test_using_strategy(self):
        query = parse_query("SELECT * FROM a TP LEFT OUTER JOIN b ON a.X = b.Y USING TA")
        assert query.strategy is JoinStrategy.TA
        assert isinstance(query.plan, TPJoin)
        assert query.plan.strategy is JoinStrategy.TA

    def test_default_strategy_is_auto(self):
        query = parse_query("SELECT * FROM a TP LEFT OUTER JOIN b ON a.X = b.Y")
        assert query.strategy is JoinStrategy.AUTO

    def test_parsed_query_surface_details(self):
        query = parse_query("SELECT Name FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
        assert query.left_relation == "a"
        assert query.right_relation == "b"
        assert query.join_kind is JoinKind.ANTI
        assert query.select_list == ("Name",)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM a",
            "SELECT * a",
            "SELECT * FROM a TP SIDEWAYS JOIN b ON a.X = b.Y",
            "SELECT * FROM a TP LEFT OUTER JOIN b",
            "SELECT * FROM a TP LEFT OUTER JOIN b ON a.X",
            "SELECT * FROM a USING XX",
            "SELECT * FROM a DURING [x, 8)",
            "SELECT * FROM a extra tokens here",
            "SELECT * FROM a WHERE Name =",
        ],
    )
    def test_malformed_queries_raise(self, text):
        with pytest.raises(SQLSyntaxError):
            parse_query(text)
