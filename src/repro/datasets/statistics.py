"""Descriptive statistics of TP workloads.

Used by the WebKit example to describe its workload and by tests to verify
that the WebKit-like and Meteo-like generators actually exhibit the
selectivity the paper attributes to the real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relation import TPRelation


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

