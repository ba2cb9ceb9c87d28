"""Tests for the synthetic workload generators."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import overlap_join
from repro.datasets import (
    DISTINCT_METRICS,
    IntervalLengthDistribution,
    KeyDistribution,
    WorkloadConfig,
    generate_pair,
    generate_relation,
    meteo_pair,
    webkit_pair,
    workload_statistics,
)
from repro.relation import EquiJoinCondition


def assert_lineage_complete(relation) -> None:
    """Every lineage variable of ``relation`` has a registered probability."""
    for tp_tuple in relation:
        relation.events.validate_lineage(tp_tuple.lineage)


def mean_matches_per_tuple(positive, negative, theta) -> float:
    """Valid, θ-matching partners per positive tuple: the overlap density."""
    groups = overlap_join(positive, negative, theta)
    return sum(len(group.matches) for group in groups) / len(positive)


class TestGenerateRelation:
    def test_size_and_schema(self):
        config = WorkloadConfig(size=50, distinct_keys=5, seed=1)
        relation = generate_relation(config, name="t")
        assert len(relation) == 50
        assert relation.schema.attributes == ("Key", "Payload")

    def test_determinism(self):
        config = WorkloadConfig(size=40, distinct_keys=4, seed=7)
        first = generate_relation(config, name="x")
        second = generate_relation(config, name="x")
        assert [t.key() for t in first] == [t.key() for t in second]

    def test_different_seeds_differ(self):
        base = WorkloadConfig(size=40, distinct_keys=4, seed=7)
        first = generate_relation(base, name="x")
        second = generate_relation(replace(base, seed=8), name="x")
        assert [t.key() for t in first] != [t.key() for t in second]

    def test_constraint_holds(self):
        config = WorkloadConfig(size=200, distinct_keys=3, seed=3)
        generate_relation(config, name="t").check_duplicate_free()

    def test_probabilities_within_configured_range(self):
        config = WorkloadConfig(
            size=100, distinct_keys=5, min_probability=0.3, max_probability=0.6, seed=2
        )
        relation = generate_relation(config, name="t")
        for tp_tuple in relation:
            assert 0.3 <= tp_tuple.probability <= 0.6

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_relation(WorkloadConfig(size=0, distinct_keys=1))
        with pytest.raises(ValueError):
            generate_relation(WorkloadConfig(size=5, distinct_keys=0))

    @pytest.mark.parametrize(
        "distribution",
        [
            IntervalLengthDistribution.UNIFORM,
            IntervalLengthDistribution.GEOMETRIC,
            IntervalLengthDistribution.LONG_TAIL,
        ],
    )
    def test_all_interval_distributions_produce_valid_intervals(self, distribution):
        config = WorkloadConfig(
            size=100, distinct_keys=10, interval_distribution=distribution, seed=5
        )
        relation = generate_relation(config, name="t")
        assert all(t.interval.duration >= 1 for t in relation)

    @pytest.mark.parametrize(
        "distribution", [KeyDistribution.UNIFORM, KeyDistribution.ZIPF]
    )
    def test_key_distributions(self, distribution):
        config = WorkloadConfig(size=200, distinct_keys=10, key_distribution=distribution, seed=5)
        relation = generate_relation(config, name="t")
        keys = set(relation.attribute_values("Key"))
        assert 1 <= len(keys) <= 10

    def test_generate_pair_shares_one_event_space(self):
        config = WorkloadConfig(size=30, distinct_keys=3, seed=1)
        left, right = generate_pair(config, replace(config, seed=2))
        assert left.events is right.events
        assert_lineage_complete(left)
        assert_lineage_complete(right)


class TestPaperWorkloads:
    def test_webkit_is_selective_meteo_is_not(self):
        webkit_r, _ = webkit_pair(800, seed=1)
        meteo_r, _ = meteo_pair(800, seed=1)
        webkit_stats = workload_statistics(webkit_r, "File")
        meteo_stats = workload_statistics(meteo_r, "Metric")
        # WebKit-like: many distinct keys; Meteo-like: few (fixed) keys.
        assert webkit_stats.distinct_keys > 2 * meteo_stats.distinct_keys
        assert meteo_stats.distinct_keys <= DISTINCT_METRICS

    def test_meteo_distinct_keys_stay_fixed_while_webkit_grows_with_size(self):
        small_webkit, _ = webkit_pair(300, seed=1)
        large_webkit, _ = webkit_pair(1200, seed=1)
        small_meteo, _ = meteo_pair(300, seed=1)
        large_meteo, _ = meteo_pair(1200, seed=1)
        assert (
            workload_statistics(large_webkit, "File").distinct_keys
            > 1.5 * workload_statistics(small_webkit, "File").distinct_keys
        )
        assert (
            workload_statistics(large_meteo, "Metric").distinct_keys
            == workload_statistics(small_meteo, "Metric").distinct_keys
            == DISTINCT_METRICS
        )

    def test_meteo_has_denser_matching_than_webkit(self):
        webkit_r, webkit_s = webkit_pair(600, seed=2)
        meteo_r, meteo_s = meteo_pair(600, seed=2)
        webkit_theta = EquiJoinCondition(webkit_r.schema, webkit_s.schema, (("File", "File"),))
        meteo_theta = EquiJoinCondition(meteo_r.schema, meteo_s.schema, (("Metric", "Metric"),))
        assert mean_matches_per_tuple(meteo_r, meteo_s, meteo_theta) > mean_matches_per_tuple(
            webkit_r, webkit_s, webkit_theta
        )

    def test_pairs_are_constraint_valid_and_lineage_complete(self):
        for relation in (*webkit_pair(300, seed=3), *meteo_pair(300, seed=3)):
            relation.check_duplicate_free()
            assert_lineage_complete(relation)

    def test_statistics_report_fields(self):
        relation, _ = webkit_pair(200, seed=4)
        stats = workload_statistics(relation, "File")
        exported = stats.as_dict()
        assert exported["cardinality"] == 200
        assert 0 < exported["selectivity_ratio"] <= 1
        assert exported["mean_interval_length"] > 0

    def test_empty_relation_statistics(self):
        from repro.relation import Schema, TPRelation

        stats = workload_statistics(TPRelation(Schema.of("Key")), "Key")
        assert stats.cardinality == 0
