"""Tests for the TP join operators (beyond the golden paper example)."""

from __future__ import annotations

import gc

import pytest

from repro import (
    Schema,
    TPRelation,
    equi_join_on,
    tp_anti_join,
    tp_full_outer_join,
    tp_inner_join,
    tp_left_outer_join,
    tp_right_outer_join,
)
from repro.core import TABLE_II, nj_wn, nj_wuo, nj_wuon, swap_theta, tp_join
from repro.core import joins, overlap
from repro.core.overlap import OverlapRecord
from repro.datasets import webkit_pair
from repro.relation import TrueCondition
from repro.temporal import Interval
from tests.conftest import ApproxProbability, canonical_rows, make_random_relations


class TestBasicBehaviour:
    def test_inner_join_produces_only_matching_pairs(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_inner_join(wants_to_visit, hotel_availability, loc_theta)
        assert len(result) == 2
        assert all(None not in t.fact for t in result)

    def test_compute_probabilities_flag(self, wants_to_visit, hotel_availability, loc_theta):
        lazy = tp_left_outer_join(
            wants_to_visit, hotel_availability, loc_theta, compute_probabilities=False
        )
        assert all(t.probability is None for t in lazy)
        eager = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert all(t.probability is not None for t in eager)

    def test_join_with_empty_negative_relation_returns_positive_unchanged(
        self, wants_to_visit
    ):
        empty = TPRelation(Schema.of("Hotel", "Loc"), events=wants_to_visit.events, name="b")
        theta = equi_join_on(wants_to_visit.schema, empty.schema, [("Loc", "Loc")])
        anti = tp_anti_join(wants_to_visit, empty, theta)
        assert canonical_rows(anti, with_probability=False) == canonical_rows(
            wants_to_visit.with_probabilities(), with_probability=False
        )

    def test_join_with_empty_positive_relation_is_empty(self, hotel_availability):
        empty = TPRelation(Schema.of("Name", "Loc"), events=hotel_availability.events, name="a")
        theta = equi_join_on(empty.schema, hotel_availability.schema, [("Loc", "Loc")])
        assert len(tp_left_outer_join(empty, hotel_availability, theta)) == 0
        assert len(tp_anti_join(empty, hotel_availability, theta)) == 0

    def test_pure_temporal_join_with_true_condition(self):
        left = TPRelation.from_rows(Schema.of("L"), [("x", "l1", 0, 6, 0.5)], name="l")
        right = TPRelation.from_rows(
            Schema.of("R"), [("y", "r1", 4, 9, 0.5)], events=left.events, name="r"
        )
        result = tp_left_outer_join(left, right, TrueCondition())
        rows = {(t.fact, t.interval, str(t.lineage)) for t in result}
        assert (("x", "y"), Interval(4, 6), "l1 ∧ r1") in rows
        assert (("x", None), Interval(0, 4), "l1") in rows
        assert (("x", None), Interval(4, 6), "l1 ∧ ¬r1") in rows

    def test_anti_join_probabilities_complement_the_matching_part(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        """At each time point P(matched) + P(unmatched/negated) = P(positive tuple)."""
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        time_point = 5
        ann_rows = [
            t for t in result if t.fact[0] == "Ann" and time_point in t.interval
        ]
        total = 0.0
        matched = [t for t in ann_rows if t.fact[2] is not None]
        negated = [t for t in ann_rows if t.fact[2] is None]
        # matched tuples are not mutually exclusive, but the negated tuple plus
        # the probability that at least one hotel is available must equal P(a1)
        assert len(negated) == 1
        p_some_hotel = 1 - (1 - 0.7) * (1 - 0.6)
        assert negated[0].probability == pytest.approx(0.7 * (1 - p_some_hotel))
        assert negated[0].probability + 0.7 * p_some_hotel == pytest.approx(0.7)
        assert len(matched) == 2

    def test_result_relations_carry_merged_event_spaces(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert "a1" in result.events
        assert "b3" in result.events


class TestSchemaHandling:
    def test_clashing_attribute_names_are_prefixed_with_relation_name(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        result = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
        assert "b.Loc" in result.schema.attributes

    def test_non_clashing_names_stay_unprefixed(self):
        left = TPRelation.from_rows(Schema.of("A"), [("x", "l1", 0, 5, 0.5)], name="l")
        right = TPRelation.from_rows(
            Schema.of("B"), [("x", "r1", 0, 5, 0.5)], events=left.events, name="r"
        )
        theta = equi_join_on(left.schema, right.schema, [("A", "B")])
        result = tp_left_outer_join(left, right, theta)
        assert result.schema.attributes == ("A", "B")


class TestSymmetries:
    @pytest.mark.parametrize("seed", range(4))
    def test_right_outer_join_is_the_mirrored_left_outer_join(self, seed):
        positive, negative, theta = make_random_relations(seed)
        right = tp_right_outer_join(positive, negative, theta)
        mirrored = tp_left_outer_join(negative, positive, swap_theta(theta))

        def normalise(relation, flip: bool):
            rows = set()
            for t in relation:
                fact = t.fact
                if flip:
                    fact = fact[len(negative.schema):] + fact[: len(negative.schema)]
                rows.add((fact, t.interval.start, t.interval.end, ApproxProbability(t.probability)))
            return rows

        assert normalise(right, flip=False) == normalise(mirrored, flip=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_outer_join_contains_left_and_right_outer_joins(self, seed):
        positive, negative, theta = make_random_relations(seed)
        full = canonical_rows(tp_full_outer_join(positive, negative, theta))
        left = canonical_rows(tp_left_outer_join(positive, negative, theta))
        assert left <= full

    @pytest.mark.parametrize("seed", range(4))
    def test_anti_join_is_the_null_padded_part_of_the_left_outer_join(self, seed):
        positive, negative, theta = make_random_relations(seed)
        anti = canonical_rows(tp_anti_join(positive, negative, theta))
        left_outer = tp_left_outer_join(positive, negative, theta)
        padded = left_outer.filter(lambda t: all(v is None for v in t.fact[len(positive.schema):]))
        trimmed = {
            (row[0][: len(positive.schema)], row[1], row[2], row[3], row[4])
            for row in canonical_rows(padded)
        }
        assert anti == trimmed


class TestMeasurementEntryPoints:
    def test_wuon_is_wuo_plus_wn(self, wants_to_visit, hotel_availability, loc_theta):
        wuo = nj_wuo(wants_to_visit, hotel_availability, loc_theta)
        wn = nj_wn(wants_to_visit, hotel_availability, loc_theta)
        wuon = nj_wuon(wants_to_visit, hotel_availability, loc_theta)
        assert len(wuon) == len(wuo) + len(wn)

    def test_wn_contains_only_negating_windows(
        self, wants_to_visit, hotel_availability, loc_theta
    ):
        from repro import WindowClass

        assert all(
            w.window_class is WindowClass.NEGATING
            for w in nj_wn(wants_to_visit, hotel_availability, loc_theta)
        )


class TestWhatABatchJoinKeepsAlive:
    """``tp_join`` consumes overlap groups as they are formed and trusts its facts."""

    @pytest.fixture(scope="class")
    def pair(self):
        left, right = webkit_pair(200, seed=3)
        return left, right, equi_join_on(left.schema, right.schema, [("File", "File")])

    @pytest.mark.parametrize("kind", ["anti", "left_outer", "full_outer"])
    def test_at_most_one_groups_records_are_alive(self, pair, kind, monkeypatch):
        """When the join asks for the next group, the only records alive are
        the finished group's own: none of an earlier group survives, not
        even one a loop variable of the consumer last named."""
        streamed = joins.iter_overlap_join
        readings = []

        def live_records():
            return [o for o in gc.get_objects() if type(o) is OverlapRecord]

        def watched(positive, negative, theta):
            for group in streamed(positive, negative, theta):
                yield group
                others = sum(record.r is not group.r for record in live_records())
                readings.append((others - baseline, len(group.matches)))

        monkeypatch.setattr(joins, "iter_overlap_join", watched)
        gc.collect()
        baseline = len(live_records())
        left, right, theta = pair
        tp_join(kind, left, right, theta)
        groups = len(left) + (len(right) if kind == "full_outer" else 0)
        assert len(readings) == groups
        assert max(records for _, records in readings) > 1
        assert max(others for others, _ in readings) == 0, readings

    @pytest.mark.parametrize("kind", ["anti", "left_outer", "full_outer", "inner"])
    def test_no_earlier_groups_record_is_alive_when_a_group_is_built(
        self, pair, kind, monkeypatch
    ):
        """Each time the overlap join has built a group's records, the
        consumer has already let go of every earlier group: its loop
        variables name none of them while it waits for the next."""
        merge = overlap._merge_bucket
        readings = []

        def watched(group, bucket, check):
            merge(group, bucket, check)
            stale = [
                o for o in gc.get_objects() if type(o) is OverlapRecord and o.r is not group.r
            ]
            readings.append((len(stale) - baseline, len(group.matches)))

        monkeypatch.setattr(overlap, "_merge_bucket", watched)
        gc.collect()
        baseline = sum(type(o) is OverlapRecord for o in gc.get_objects())
        left, right, theta = pair
        tp_join(kind, left, right, theta)
        assert len(readings) > len(left) // 2
        assert max(records for _, records in readings) > 1
        assert max(stale for stale, _ in readings) == 0, readings

    @pytest.mark.parametrize("kind", sorted(TABLE_II))
    def test_outputs_are_not_revalidated(self, pair, kind, monkeypatch):
        left, right, theta = pair
        validated = []
        check = Schema.validate_fact

        def counting(schema, fact):
            validated.append(fact)
            return check(schema, fact)

        monkeypatch.setattr(Schema, "validate_fact", counting)
        result = tp_join(kind, left, right, theta)
        assert len(result) > 0 and validated == []
