"""The join path builds no ``Interval``.

``TPTuple``, ``OverlapRecord`` and ``Window`` store their bounds as ints, and
the overlap join, the sweeps, tuple formation and both window maintainers
compute overlaps from those ints.  An ``Interval`` is built only where
something asks for ``.interval``.  These tests count constructions through a
patched ``Interval.__new__``, so the counts are exact on any host.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core import JOIN_KINDS, tp_join
from repro.datasets import arrival_order, meteo_pair, webkit_pair
from repro.relation import EquiJoinCondition
from repro.stream import StreamSource, continuous_join, merge_tagged
from repro.temporal import Interval

DATASETS = {"meteo": (meteo_pair, "Metric"), "webkit": (webkit_pair, "File")}


class Constructions:
    """How many intervals were built since the counter was last reset."""

    def __init__(self) -> None:
        self.intervals = 0


@pytest.fixture
def built(monkeypatch) -> Constructions:
    counter = Constructions()
    construct = Interval.__new__

    def counted(cls, start, end):
        counter.intervals += 1
        return construct(cls, start, end)

    monkeypatch.setattr(Interval, "__new__", staticmethod(counted))
    return counter


@lru_cache(maxsize=None)
def inputs(dataset: str):
    make, key = DATASETS[dataset]
    left, right = make(120, seed=3)
    return left, right, key, EquiJoinCondition(left.schema, right.schema, ((key, key),))


def test_the_counter_sees_an_interval_built_on_demand(built):
    left, *_ = inputs("meteo")
    built.intervals = 0
    assert left.tuples[0].interval == Interval(left.tuples[0].start, left.tuples[0].end)
    assert built.intervals == 2


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("kind", sorted(JOIN_KINDS))
def test_a_batch_join_builds_no_interval(kind, dataset, built):
    left, right, _key, theta = inputs(dataset)
    built.intervals = 0
    joined = tp_join(kind, left, right, theta)
    assert built.intervals == 0
    assert len(joined) > 0


@pytest.mark.parametrize("kind", sorted(JOIN_KINDS))
def test_a_continuous_join_builds_no_interval(kind, built):
    left, right, key, _theta = inputs("meteo")
    operator = continuous_join(
        kind, left.schema, right.schema, [(key, key)],
        left_name=left.name, right_name=right.name,
        events=left.events.merge(right.events), materialize_probabilities=True,
    )
    elements = list(
        merge_tagged(
            *(
                StreamSource(arrival_order(relation, 6, seed=side), lateness=6, watermark_every=3)
                for side, relation in enumerate((left, right))
            ),
            seed=3,
        )
    )
    built.intervals = 0
    outputs = list(operator.run(elements))
    assert built.intervals == 0
    assert outputs
    maintainers = [operator.maintainer, operator.reverse_maintainer]
    assert (maintainers[1] is not None) == (kind in ("right_outer", "full_outer"))
    for maintainer in filter(None, maintainers):
        assert maintainer.stats.groups_finalized > 0
