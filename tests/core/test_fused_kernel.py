"""The NJ base shape's fused loop and the overlap join's in-place records.

A group of base events whose negatives never overlap is answered by one
loop in ``group_tuples`` that sweeps its gaps inline and writes every output
``TPTuple`` and its ``And`` through the types' writers; the overlap join and
the stream maintainer write their ``OverlapRecord``s and ``OverlapGroup``s
the same way.  Pinned here: no constructor, factory or sweep generator runs
per output, record or group of a base-shaped join; what the writers build
cannot be told from what the constructors build; and the kernel's outputs
are the window path's, in order and bit for bit, at the benchmark's size.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from collections import Counter
from functools import lru_cache

import pytest

from repro.core import TABLE_II, join_output_schema, overlap_join, tp_join, tp_inner_join
from repro.core.lawau import gap_sweep
from repro.core.overlap import OverlapGroup, OverlapRecord
from repro.datasets import meteo_pair, webkit_pair
from repro.lineage import And, Not, Var
from repro.relation import EquiJoinCondition, TPRelation, TPTuple
from repro.stream.incremental import IncrementalWindowMaintainer
from tests.core.test_table2_composition import exact_rows, window_path_tuples

DATASETS = {"meteo": (meteo_pair, "Metric"), "webkit": (webkit_pair, "File")}

#: The code objects a base-shaped join must never enter.
WATCHED = {
    TPTuple.from_bounds.__code__: "TPTuple.from_bounds",
    And.__new__.__code__: "And.__new__",
    OverlapRecord.__new__.__code__: "OverlapRecord.__new__",
    gap_sweep.__code__: "gap_sweep",
}


@lru_cache(maxsize=None)
def pair(dataset: str, size: int, seed: int = 0):
    make, key = DATASETS[dataset]
    left, right = make(size, seed=seed)
    return left, right, EquiJoinCondition(left.schema, right.schema, ((key, key),))


def entered(call) -> Counter:
    """How often ``call()`` enters (or resumes) each watched function."""
    counts: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in WATCHED:
            counts[WATCHED[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


# --------------------------------------------------------------------------- #
# no call per output, record or group
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("kind", sorted(TABLE_II))
def test_a_base_shaped_join_calls_no_constructor_and_no_sweep(dataset, kind):
    left, right, theta = pair(dataset, 200)
    joined = []
    counts = entered(lambda: joined.append(tp_join(kind, left, right, theta)))
    assert len(joined[0]) > 0
    assert counts == Counter(), counts


def test_a_derived_lineage_still_reaches_the_sweep():
    left, right, theta = pair("webkit", 200)
    derived = tp_inner_join(left, right, theta)
    assert all(type(t.lineage) is And for t in derived)
    again = EquiJoinCondition(derived.schema, right.schema, (("File", "File"),))
    counts = entered(lambda: tp_join("left_outer", derived, right, again))
    assert counts["gap_sweep"] > 0 and counts["TPTuple.from_bounds"] > 0


# --------------------------------------------------------------------------- #
# writer-built values are the constructors' values
# --------------------------------------------------------------------------- #
def assert_indistinguishable(built, rebuilt, frozen: bool = True) -> None:
    assert type(built) is type(rebuilt)
    assert built == rebuilt
    if frozen:
        assert hash(built) == hash(rebuilt)
    else:
        with pytest.raises(TypeError):
            hash(built)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(built, protocol))
        assert type(loaded) is type(built) and loaded == rebuilt
    for copied in (copy.copy(built), copy.deepcopy(built)):
        assert type(copied) is type(built) and copied == rebuilt
    if frozen:
        name = dataclasses.fields(built)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, getattr(built, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.extra = 1


def test_fused_outputs_are_the_constructors_tuples_and_ands():
    left, right, theta = pair("webkit", 200)
    joined = tp_join("left_outer", left, right, theta)
    shapes = Counter()
    for built in joined:
        rebuilt = TPTuple.from_bounds(
            built.fact, built.lineage, built.start, built.end, built.probability
        )
        assert_indistinguishable(built, rebuilt)
        lineage = built.lineage
        if type(lineage) is And:
            negated = type(lineage.operands[1]) is Not
            shapes["negating" if negated else "overlapping"] += 1
            assert_indistinguishable(lineage, And(lineage.operands))
        else:
            shapes["unmatched"] += 1
            assert type(lineage) is Var
    assert min(shapes.values()) > 0 and len(shapes) == 3


def test_overlap_join_records_and_groups_are_the_constructors():
    left, right, theta = pair("webkit", 200)
    records = 0
    for group in overlap_join(left, right, theta):
        assert_indistinguishable(group, OverlapGroup(group.r, list(group.matches)), frozen=False)
        for record in group.matches:
            records += 1
            rebuilt = OverlapRecord(record.r, record.s, record.start, record.end)
            assert_indistinguishable(record, rebuilt)
    assert records > 0
    assert OverlapGroup(left.tuples[0]) == OverlapGroup(left.tuples[0], [])


def test_the_maintainers_records_and_groups_are_the_constructors():
    left, right, theta = pair("webkit", 200)
    maintainer = IncrementalWindowMaintainer(theta, left.events)
    # Half the negatives before the positives (add_positive writes their
    # records), half after (add_negative does).
    half = len(right) // 2
    for negative in right.tuples[:half]:
        maintainer.add_negative(negative)
    for positive in sorted(left.tuples, key=lambda t: t.start):
        maintainer.add_positive(positive)
    for negative in right.tuples[half:]:
        maintainer.add_negative(negative)
    finalized = maintainer.close()
    records = 0
    for item in finalized:
        group = item.group
        assert_indistinguishable(group, OverlapGroup(group.r, list(group.matches)), frozen=False)
        for record in group.matches:
            records += 1
            rebuilt = OverlapRecord(record.r, record.s, record.start, record.end)
            assert_indistinguishable(record, rebuilt)
    assert len(finalized) == len(left) and records > 0


# --------------------------------------------------------------------------- #
# the kernel is the window path, at the benchmark's size
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("probabilities", [True, False], ids=["probabilities", "bare"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("kind", sorted(TABLE_II))
def test_the_kernel_is_the_window_path_at_n_1000(kind, dataset, seed, probabilities):
    left, right, theta = pair(dataset, 1000, seed)
    events = left.events.merge(right.events)
    joined = tp_join(kind, left, right, theta, compute_probabilities=probabilities)
    referee = window_path_tuples(kind, left, right, theta, events)
    if probabilities:
        schema = join_output_schema(kind, left.schema, right.schema, right.name)
        referee = TPRelation(schema, referee, events, check_constraint=False).with_probabilities()
    assert len(joined) > 0
    assert exact_rows(joined) == exact_rows(referee)
