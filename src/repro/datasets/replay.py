"""Replay generation: finite TP relations as out-of-order event streams.

The continuous-query subsystem consumes unbounded, watermarked event
streams; the repository's workloads are finite synthetic relations.  This
module bridges the two: it *replays* a relation as a stream whose arrival
order deviates from event-time order by a configurable **disorder** bound.

The disorder model perturbs each tuple's interval start by a uniform jitter
in ``[0, disorder]`` and sorts arrivals by the perturbed value, so a tuple
can arrive after tuples that start up to ``disorder`` time points later —
the bounded-disorder pattern of real event logs (network reordering, batchy
collectors).  A :class:`~repro.stream.StreamSource` configured with
``lateness >= disorder`` then provably evicts nothing: when a tuple arrives,
the largest start seen is at most ``disorder`` ahead of it, so the source
watermark (``max start - lateness``) has not passed it.

:func:`stream_def` packages a relation as a registered-stream definition for
the engine catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..relation import TPRelation, TPTuple
from ..stream import StreamDef, StreamSource, StreamStats


@dataclass(frozen=True)
class ReplayConfig:
    """How a finite relation is replayed as a stream.

    Attributes:
        disorder: maximal event-time displacement of the arrival order, in
            time points.  ``0`` replays in perfect event-time order.
        lateness: bounded-lateness allowance of the ingesting source;
            defaults to ``disorder`` (the tight bound under which nothing is
            evicted).  Set it *below* the disorder to exercise eviction.
        watermark_every: events between consecutive watermark emissions.
        seed: jitter RNG seed (per-stream determinism).
    """

    disorder: int = 0
    lateness: Optional[int] = None
    watermark_every: int = 8
    seed: int = 0

    def effective_lateness(self) -> int:
        """The source's lateness bound (defaults to the disorder)."""
        return self.disorder if self.lateness is None else self.lateness


def arrival_order(
    relation: TPRelation, disorder: int = 0, seed: int = 0
) -> List[TPTuple]:
    """The relation's tuples in a disorder-bounded arrival order.

    Sorting by ``start + uniform(0, disorder)`` guarantees that whenever a
    tuple arrives, every earlier arrival starts at most ``disorder`` time
    points after it — the bound the watermark lateness is matched against.
    """
    if disorder < 0:
        raise ValueError("disorder must be non-negative")
    rng = random.Random(seed)
    keyed = [
        (tp_tuple.start + rng.uniform(0, disorder), index, tp_tuple)
        for index, tp_tuple in enumerate(relation)
    ]
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [tp_tuple for _, _, tp_tuple in keyed]


def stream_def(
    relation: TPRelation, config: ReplayConfig | None = None, name: str = ""
) -> StreamDef:
    """Package a relation as a registered-stream definition.

    Every call of the returned definition's ``replay`` builds a fresh source
    over the same deterministic arrival order, so a registered stream can
    serve any number of queries.
    """
    fixed = config or ReplayConfig()
    label = name or relation.name
    # The arrival order is deterministic per config: compute it once and let
    # every replay share it instead of re-drawing jitter and re-sorting.
    ordered = arrival_order(relation, fixed.disorder, fixed.seed)

    def fresh_replay() -> StreamSource:
        # Return the source itself (it is iterable): consumers that care,
        # like StreamQuery, can read its eviction stats after the run.
        return StreamSource(
            ordered,
            lateness=fixed.effective_lateness(),
            watermark_every=fixed.watermark_every,
            name=label,
        )

    return StreamDef(
        schema=relation.schema,
        events=relation.events,
        replay=fresh_replay,
        name=label,
        stats=StreamStats(cardinality=len(relation)),
    )

