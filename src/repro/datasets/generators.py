"""Synthetic temporal-probabilistic workload generation.

The paper evaluates on two real datasets (WebKit and MeteoSwiss) that are not
redistributable here, so the benchmarks run on seeded synthetic workloads
whose *statistical shape* matches what the paper reports as the performance-
relevant properties: input cardinality, number of distinct join keys (join
selectivity), interval-length distribution and overlap density.  The
:class:`WorkloadConfig` captures those knobs; :func:`generate_relation`
produces a valid TP relation (per-fact disjoint intervals) from a config, and
:func:`generate_pair` produces the positive/negative relation pair a join
benchmark needs.

Determinism: all randomness flows through one :class:`random.Random` seeded
from the config, so a given config always yields byte-identical relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from ..lineage import EventSpace
from ..relation import Schema, TPRelation, TPTuple
from ..temporal import Interval


class IntervalLengthDistribution(str, Enum):
    """Shape of the tuple interval-length distribution."""

    UNIFORM = "uniform"
    GEOMETRIC = "geometric"
    LONG_TAIL = "long_tail"


class KeyDistribution(str, Enum):
    """How join keys are assigned to tuples."""

    UNIFORM = "uniform"
    ZIPF = "zipf"


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic TP relation.

    Attributes:
        size: number of tuples.
        distinct_keys: number of distinct join-key values; the ratio
            ``size / distinct_keys`` controls join selectivity (the paper's
            Meteo dataset has "a number of distinct values much smaller than
            its size").
        key_distribution: how keys are drawn for tuples.
        mean_interval_length: average tuple duration in time points.
        interval_distribution: shape of the duration distribution.
        gap_factor: average gap between consecutive intervals of the same
            fact, as a fraction of the mean interval length (0 = adjacent).
        min_probability / max_probability: range of tuple probabilities.
        event_prefix: prefix of the generated event-variable names.
        key_attribute / payload_attribute: schema attribute names.
        seed: RNG seed; two configs differing only in ``seed`` produce
            statistically identical but different relations.
    """

    size: int
    distinct_keys: int
    key_distribution: KeyDistribution = KeyDistribution.UNIFORM
    mean_interval_length: int = 10
    interval_distribution: IntervalLengthDistribution = IntervalLengthDistribution.GEOMETRIC
    gap_factor: float = 0.5
    min_probability: float = 0.05
    max_probability: float = 0.95
    event_prefix: str = "e"
    key_attribute: str = "Key"
    payload_attribute: str = "Payload"
    seed: int = 0

    def schema(self) -> Schema:
        """The schema of the generated relation."""
        return Schema.of(self.key_attribute, self.payload_attribute)


def generate_relation(
    config: WorkloadConfig,
    events: EventSpace | None = None,
    name: str = "synthetic",
) -> TPRelation:
    """Generate one TP relation from a workload configuration.

    Tuples are laid out key by key: for each key the generator walks a
    private timeline, drawing a duration and a gap for every tuple, so tuples
    sharing a fact never overlap (the TP duplicate-free constraint holds by
    construction).  The payload attribute is a per-tuple serial number, so
    facts are unique per tuple — which mirrors the WebKit/Meteo schemas, where
    the joined attribute (file, station/metric) is one of several columns.
    """
    if config.size <= 0:
        raise ValueError("workload size must be positive")
    if config.distinct_keys <= 0:
        raise ValueError("distinct_keys must be positive")
    rng = random.Random(config.seed)
    space = events if events is not None else EventSpace()

    key_of_tuple = _assign_keys(config, rng)
    timelines: dict[str, int] = {}
    tuples: list[TPTuple] = []
    for index, key in enumerate(key_of_tuple):
        duration = _draw_duration(config, rng)
        gap = _draw_gap(config, rng)
        start = timelines.get(key, 0) + gap
        interval = Interval(start, start + duration)
        timelines[key] = interval.end
        probability = rng.uniform(config.min_probability, config.max_probability)
        event = f"{config.event_prefix}{name}_{index}"
        space.register(event, probability)
        fact = (key, index)
        tuples.append(TPTuple.base(fact, event, interval, probability))
    return TPRelation(config.schema(), tuples, space, name=name, check_constraint=False)


def generate_pair(
    positive_config: WorkloadConfig,
    negative_config: WorkloadConfig,
    positive_name: str = "r",
    negative_name: str = "s",
) -> tuple[TPRelation, TPRelation]:
    """Generate a positive/negative relation pair over a shared event space."""
    events = EventSpace()
    positive = generate_relation(positive_config, events, name=positive_name)
    negative = generate_relation(negative_config, events, name=negative_name)
    return positive, negative


# --------------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------------- #
def _assign_keys(config: WorkloadConfig, rng: random.Random) -> list[str]:
    keys = [f"k{index}" for index in range(config.distinct_keys)]
    if config.key_distribution is KeyDistribution.UNIFORM:
        return [rng.choice(keys) for _ in range(config.size)]
    # Zipf-ish: weight key i by 1 / (i + 1).
    weights = [1.0 / (rank + 1) for rank in range(config.distinct_keys)]
    return rng.choices(keys, weights=weights, k=config.size)


def _draw_duration(config: WorkloadConfig, rng: random.Random) -> int:
    mean = max(config.mean_interval_length, 1)
    if config.interval_distribution is IntervalLengthDistribution.UNIFORM:
        return rng.randint(1, 2 * mean - 1)
    if config.interval_distribution is IntervalLengthDistribution.GEOMETRIC:
        duration = 1
        while rng.random() > 1.0 / mean and duration < 50 * mean:
            duration += 1
        return duration
    # Long tail: mostly short, occasionally very long (WebKit-like files that
    # stay unchanged for a long time).
    if rng.random() < 0.9:
        return rng.randint(1, mean)
    return rng.randint(mean, 20 * mean)


def _draw_gap(config: WorkloadConfig, rng: random.Random) -> int:
    mean_gap = config.gap_factor * config.mean_interval_length
    if mean_gap <= 0:
        return 0
    return rng.randint(0, max(1, int(2 * mean_gap)))
