"""End-to-end integration tests across all subsystems."""

from __future__ import annotations

import random

import pytest

from repro import (
    Schema,
    TPRelation,
    equi_join_on,
    naive_left_outer_join,
    ta_left_outer_join,
    tp_anti_join,
    tp_left_outer_join,
)
from repro.datasets import meteo_pair, webkit_pair
from repro.engine import Engine
from repro.relation import EquiJoinCondition, read_relation_csv, write_relation_csv
from tests.conftest import canonical_rows
from tests.lineage.test_lineage_properties import brute_force_probability


def uniform_subset(relation: TPRelation, size: int, seed: int) -> TPRelation:
    """``size`` tuples sampled uniformly without replacement, in input order."""
    chosen = sorted(random.Random(seed).sample(range(len(relation)), size))
    return TPRelation(
        relation.schema,
        [relation.tuples[index] for index in chosen],
        relation.events,
        name=relation.name,
        check_constraint=False,
    )


class TestGeneratedWorkloadsEndToEnd:
    def test_nj_equals_ta_on_a_webkit_like_workload(self):
        positive, negative = webkit_pair(120, seed=5)
        theta = EquiJoinCondition(positive.schema, negative.schema, (("File", "File"),))
        nj = tp_left_outer_join(positive, negative, theta, compute_probabilities=False)
        ta = ta_left_outer_join(positive, negative, theta, compute_probabilities=False)
        assert canonical_rows(nj, with_probability=False) == canonical_rows(
            ta, with_probability=False
        )

    def test_nj_equals_naive_on_a_meteo_like_workload(self):
        positive, negative = meteo_pair(60, seed=6)
        theta = EquiJoinCondition(positive.schema, negative.schema, (("Metric", "Metric"),))
        nj = tp_left_outer_join(positive, negative, theta, compute_probabilities=False)
        naive = naive_left_outer_join(positive, negative, theta, compute_probabilities=False)
        assert canonical_rows(nj, with_probability=False) == canonical_rows(
            naive, with_probability=False
        )

    def test_subsetting_then_joining(self):
        positive, negative = webkit_pair(400, seed=7)
        theta = EquiJoinCondition(positive.schema, negative.schema, (("File", "File"),))
        small_positive = uniform_subset(positive, 100, seed=1)
        small_negative = uniform_subset(negative, 100, seed=2)
        result = tp_anti_join(small_positive, small_negative, theta)
        assert len(result) >= len(small_positive)  # at least one window per tuple
        for tp_tuple in result:
            assert 0.0 <= tp_tuple.probability <= 1.0


class TestCsvToEngineRoundTrip:
    def test_csv_relations_through_the_sql_engine(self, tmp_path, wants_to_visit, hotel_availability):
        write_relation_csv(wants_to_visit, tmp_path / "a.csv")
        write_relation_csv(hotel_availability, tmp_path / "b.csv")
        shared_events = None
        a = read_relation_csv(tmp_path / "a.csv", name="a")
        b = read_relation_csv(tmp_path / "b.csv", events=a.events, name="b")

        engine = Engine()
        engine.register("a", a)
        engine.register("b", b)
        result = engine.execute_sql("SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc")
        assert len(result) == 7


class TestProbabilitySemanticsEndToEnd:
    def test_exact_probabilities_agree_with_possible_worlds_on_join_results(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        for tp_tuple in result:
            expected = brute_force_probability(tp_tuple.lineage, result.events)
            assert abs(tp_tuple.probability - expected) < 1e-9

    def test_snapshot_semantics_match_a_manual_possible_worlds_computation(self):
        """At one time point, the join result's marginals must match brute force.

        We enumerate the 2^4 possible worlds of a tiny database and compare the
        probability that 'x is valid and no matching y is valid' against the
        anti join's output tuple covering that time point.
        """
        left = TPRelation.from_rows(Schema.of("K"), [("k", "x1", 0, 10, 0.6)], name="l")
        right = TPRelation.from_rows(
            Schema.of("K", "Id"),
            [
                ("k", 1, "y1", 2, 6, 0.3),
                ("k", 2, "y2", 4, 8, 0.5),
                ("k", 3, "y3", 20, 25, 0.9),
            ],
            events=left.events,
            name="r",
        )
        theta = equi_join_on(left.schema, right.schema, [("K", "K")])
        result = tp_anti_join(left, right, theta)
        at_five = [t for t in result if 5 in t.interval]
        assert len(at_five) == 1
        # worlds: x1 true AND y1 false AND y2 false (y3 irrelevant at t=5)
        assert at_five[0].probability == pytest.approx(0.6 * 0.7 * 0.5)


class TestEngineStrategiesOnGeneratedData:
    def test_nj_and_ta_strategies_agree_via_sql(self):
        positive, negative = meteo_pair(40, seed=9)
        engine = Engine()
        engine.register("r", positive)
        engine.register("s", negative)
        nj = engine.execute_sql(
            "SELECT * FROM r TP LEFT OUTER JOIN s ON r.Metric = s.Metric USING NJ",
            compute_probabilities=False,
        )
        ta = engine.execute_sql(
            "SELECT * FROM r TP LEFT OUTER JOIN s ON r.Metric = s.Metric USING TA",
            compute_probabilities=False,
        )
        assert canonical_rows(nj, with_probability=False) == canonical_rows(
            ta, with_probability=False
        )
