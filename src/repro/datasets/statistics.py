"""Descriptive statistics of TP workloads.

Used by the WebKit example to describe its workload and by tests to verify
that the WebKit-like and Meteo-like generators actually exhibit the
properties the paper attributes to the real datasets (different join
selectivity, different overlap density).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relation import TPRelation, ThetaCondition
from ..temporal import Timeline


@dataclass(frozen=True, slots=True)
class WorkloadStatistics:
    """Summary statistics of one TP relation."""

    cardinality: int
    distinct_keys: int
    selectivity_ratio: float
    mean_interval_length: float
    max_interval_length: int
    timespan: int
    mean_probability: float

    def as_dict(self) -> dict[str, float]:
        """Dictionary form for reporting."""
        return {
            "cardinality": self.cardinality,
            "distinct_keys": self.distinct_keys,
            "selectivity_ratio": self.selectivity_ratio,
            "mean_interval_length": self.mean_interval_length,
            "max_interval_length": self.max_interval_length,
            "timespan": self.timespan,
            "mean_probability": self.mean_probability,
        }


def workload_statistics(relation: TPRelation, key_attribute: str) -> WorkloadStatistics:
    """Compute summary statistics of a relation with respect to its join key."""
    if not relation:
        return WorkloadStatistics(0, 0, 0.0, 0.0, 0, 0, 0.0)
    keys = relation.attribute_values(key_attribute)
    durations = [t.interval.duration for t in relation]
    timespan = relation.timespan()
    probabilities = [
        t.probability
        if t.probability is not None
        else relation.events.probability(next(iter(t.lineage.variables())))
        for t in relation
    ]
    distinct = len(set(keys))
    return WorkloadStatistics(
        cardinality=len(relation),
        distinct_keys=distinct,
        selectivity_ratio=distinct / len(relation),
        mean_interval_length=sum(durations) / len(durations),
        max_interval_length=max(durations),
        timespan=0 if timespan is None else timespan.duration,
        mean_probability=sum(probabilities) / len(probabilities),
    )


def mean_matches_per_tuple(
    positive: TPRelation, negative: TPRelation, theta: ThetaCondition
) -> float:
    """Average number of valid, θ-matching partners per positive tuple.

    This is the overlap density that drives the number of negating windows —
    the main difference between the WebKit-like (sparse) and Meteo-like
    (dense) workloads.
    """
    if not positive:
        return 0.0
    timeline = Timeline((s.interval, s) for s in negative)
    total = 0
    for r in positive:
        partners = timeline.overlapping(r.interval)
        total += sum(1 for s in partners if theta.evaluate(r, s))
    return total / len(positive)
