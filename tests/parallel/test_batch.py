"""Parallel batch joins: equality with serial runs and fallbacks."""

from __future__ import annotations

import pytest

from repro.core import (
    tp_anti_join,
    tp_full_outer_join,
    tp_inner_join,
    tp_left_outer_join,
    tp_right_outer_join,
)
from repro.parallel import canonical_order, parallel_tp_join
from repro.relation import PredicateCondition
from tests.conftest import canonical_rows, make_random_relations

SERIAL_JOINS = {
    "anti": tp_anti_join,
    "left_outer": tp_left_outer_join,
    "right_outer": tp_right_outer_join,
    "full_outer": tp_full_outer_join,
    "inner": tp_inner_join,
}


def tuple_rows(relation, with_probability=True):
    """Canonically ordered identity rows for tuple-for-tuple comparison."""
    ordered = canonical_order(list(relation))
    return [
        (t.fact, t.start, t.end, str(t.lineage), t.probability if with_probability else None)
        for t in ordered
    ]


@pytest.mark.parametrize("probabilities", [True, False])
@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(SERIAL_JOINS))
def test_parallel_join_matches_serial_for_every_kind(kind, workers, probabilities):
    left, right, theta = make_random_relations(seed=11, left_size=24, right_size=24)
    serial = SERIAL_JOINS[kind](left, right, theta, compute_probabilities=probabilities)
    result = parallel_tp_join(
        kind,
        left,
        right,
        [("Key", "Key")],
        workers=workers,
        compute_probabilities=probabilities,
    )
    assert result.workers == workers
    assert result.relation.schema == serial.schema
    assert tuple_rows(result.relation) == tuple_rows(serial)


def test_parallel_join_probabilities_are_bitwise_equal_to_serial():
    left, right, _theta = make_random_relations(seed=21, left_size=30, right_size=30)
    one = parallel_tp_join("left_outer", left, right, [("Key", "Key")], workers=1)
    four = parallel_tp_join("left_outer", left, right, [("Key", "Key")], workers=4)
    assert [t.probability for t in one.relation] == [t.probability for t in four.relation]


def test_workers_one_is_canonically_ordered_serial_run():
    left, right, theta = make_random_relations(seed=2)
    result = parallel_tp_join("anti", left, right, [("Key", "Key")], workers=1)
    serial = tp_anti_join(left, right, theta)
    assert result.workers == 1
    assert parallel_tp_join("anti", left, right, [("Key", "Key")]).workers == 1
    assert [t.key() for t in result.relation] == [t.key() for t in canonical_order(serial.tuples)]


def test_non_equi_theta_falls_back_to_serial():
    left, right, _theta = make_random_relations(seed=3)
    result = parallel_tp_join("left_outer", left, right, on=(), workers=4)
    assert result.workers == 1
    serial = tp_left_outer_join(
        left, right, PredicateCondition(lambda left, right: True), compute_probabilities=True
    )
    assert canonical_rows(result.relation) == canonical_rows(serial)


def test_unknown_kind_and_bad_workers_are_rejected():
    left, right, _theta = make_random_relations(seed=4)
    with pytest.raises(ValueError):
        parallel_tp_join("semi", left, right, [("Key", "Key")])
    with pytest.raises(ValueError):
        parallel_tp_join("anti", left, right, [("Key", "Key")], workers=0)
