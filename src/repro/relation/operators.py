"""Non-join temporal-probabilistic operators.

These are the unary operators of the TP algebra that the paper's predecessor
work ("Supporting set operations in temporal-probabilistic databases", ICDE
2018) defines and that the query engine evaluates around the joins:
selection, projection and timeslice.  The join
operators — the paper's actual contribution — live in :mod:`repro.core.joins`.

Semantics follow the standard possible-worlds interpretation:

* **selection** keeps tuples whose fact satisfies a predicate; lineage,
  interval and probability are unchanged.
* **projection** may map distinct facts to the same projected fact; at every
  time point the projected fact is true when *any* of its contributing
  tuples is true, so contributing lineages are OR-ed per maximal interval
  with a constant contributor set.
* **timeslice** restricts every tuple to its intersection with a query
  interval.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..lineage import disjunction_of
from ..temporal import Interval, partition_by_validity
from .relation import TPRelation
from .tptuple import TPTuple


def select(relation: TPRelation, predicate: Callable[[tuple], bool]) -> TPRelation:
    """Selection on the fact attributes (σ)."""
    kept = [t for t in relation if predicate(t.fact)]
    return relation.derived(relation.schema, kept, name=f"select({relation.name})")


def select_eq(relation: TPRelation, attribute: str, value) -> TPRelation:
    """Selection by equality on a single attribute."""
    index = relation.schema.index(attribute)
    return select(relation, lambda fact: fact[index] == value)


def timeslice(relation: TPRelation, window: Interval) -> TPRelation:
    """Restrict every tuple to its intersection with ``window`` (τ)."""
    sliced: list[TPTuple] = []
    for tp_tuple in relation:
        overlap = tp_tuple.interval.intersect(window)
        if overlap is not None:
            sliced.append(tp_tuple.with_interval(overlap))
    return relation.derived(relation.schema, sliced, name=f"timeslice({relation.name})")


def project(relation: TPRelation, attributes: Iterable[str]) -> TPRelation:
    """Projection onto a subset of attributes (π) with lineage disjunction.

    Tuples that collapse onto the same projected fact have their lineages
    OR-ed over every maximal sub-interval with a constant set of contributing
    tuples, so the result is a valid (duplicate-free) TP relation.
    """
    names = list(attributes)
    target = relation.schema.project(names)
    indexes = [relation.schema.index(name) for name in names]

    by_fact: dict[tuple, list[TPTuple]] = {}
    for tp_tuple in relation:
        projected_fact = tuple(tp_tuple.fact[i] for i in indexes)
        by_fact.setdefault(projected_fact, []).append(tp_tuple)

    output: list[TPTuple] = []
    for projected_fact, group in by_fact.items():
        intervals = [t.interval for t in group]
        frame = Interval(min(i.start for i in intervals), max(i.end for i in intervals))
        for segment, active in partition_by_validity(frame, intervals):
            if not active:
                continue
            lineage = disjunction_of(group[i].lineage for i in active)
            output.append(TPTuple(projected_fact, lineage, segment))
    output.sort(key=lambda t: t.key())
    return relation.derived(target, output, name=f"project({relation.name})", check_constraint=True)


def rename(relation: TPRelation, mapping: dict[str, str]) -> TPRelation:
    """Rename attributes (ρ)."""
    return relation.derived(
        relation.schema.rename(mapping), relation.tuples, name=relation.name
    )


def snapshot(relation: TPRelation, time_point: int) -> list[TPTuple]:
    """Return the tuples valid at one time point (the snapshot at ``t``)."""
    return [t for t in relation if time_point in t.interval]
