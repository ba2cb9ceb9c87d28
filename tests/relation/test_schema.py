"""Tests for repro.relation.schema."""

from __future__ import annotations

import pytest

from repro.relation import Schema, SchemaError, UnknownAttributeError


class TestConstruction:
    def test_of(self):
        schema = Schema.of("Name", "Loc")
        assert schema.attributes == ("Name", "Loc")
        assert len(schema) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("Name", "Name")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("Name", "")

    def test_empty_schema_allowed(self):
        assert len(Schema.of()) == 0

    def test_iteration_and_membership(self):
        schema = Schema.of("A", "B")
        assert list(schema) == ["A", "B"]
        assert "A" in schema
        assert "C" not in schema

    def test_str(self):
        assert str(Schema.of("A", "B")) == "(A, B)"


class TestLookup:
    def test_index(self):
        assert Schema.of("Name", "Loc").index("Loc") == 1

    def test_index_unknown(self):
        with pytest.raises(UnknownAttributeError):
            Schema.of("Name").index("Hotel")


class TestDerivation:
    def test_project(self):
        assert Schema.of("A", "B", "C").project(["C", "A"]).attributes == ("C", "A")

    def test_project_unknown(self):
        with pytest.raises(UnknownAttributeError):
            Schema.of("A").project(["B"])

    def test_rename(self):
        schema = Schema.of("A", "B").rename({"A": "X"})
        assert schema.attributes == ("X", "B")

    def test_rename_unknown(self):
        with pytest.raises(UnknownAttributeError):
            Schema.of("A").rename({"Z": "X"})

    def test_validate_fact(self):
        schema = Schema.of("A", "B")
        schema.validate_fact(("x", "y"))
        with pytest.raises(SchemaError):
            schema.validate_fact(("x",))
