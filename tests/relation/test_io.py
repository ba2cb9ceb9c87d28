"""Tests for CSV input/output of TP relations."""

from __future__ import annotations

import pytest

from repro import Schema, TPRelation, equi_join_on, tp_left_outer_join
from repro.relation import read_relation_csv, write_relation_csv


@pytest.fixture()
def base_relation() -> TPRelation:
    return TPRelation.from_rows(
        Schema.of("Name", "Loc"),
        [("Ann", "ZAK", "a1", 2, 8, 0.7), ("Jim", "WEN", "a2", 7, 10, 0.8)],
        name="a",
    )


class TestRoundTrip:
    def test_write_then_read_preserves_everything(self, base_relation, tmp_path):
        path = tmp_path / "a.csv"
        write_relation_csv(base_relation, path)
        restored = read_relation_csv(path)
        assert restored.schema.attributes == base_relation.schema.attributes
        assert len(restored) == len(base_relation)
        for original, loaded in zip(base_relation, restored):
            assert loaded.fact == original.fact
            assert loaded.interval == original.interval
            assert loaded.lineage == original.lineage
            assert loaded.probability == pytest.approx(original.probability)

    def test_read_uses_filename_as_default_name(self, base_relation, tmp_path):
        path = tmp_path / "bookings.csv"
        write_relation_csv(base_relation, path)
        assert read_relation_csv(path).name == "bookings"

    def test_read_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("Name,Loc,oops\nx,y,z\n")
        with pytest.raises(ValueError):
            read_relation_csv(path)

    def test_write_rejects_derived_relations(self, base_relation, tmp_path):
        hotels = TPRelation.from_rows(
            Schema.of("Hotel", "Loc"),
            [("hotel1", "ZAK", "b3", 4, 6, 0.7)],
            name="b",
        )
        theta = equi_join_on(base_relation.schema, hotels.schema, [("Loc", "Loc")])
        joined = tp_left_outer_join(base_relation, hotels, theta)
        with pytest.raises(ValueError):
            write_relation_csv(joined, tmp_path / "joined.csv")
