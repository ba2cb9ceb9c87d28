"""Ingestion layer: watermarking sources over out-of-order event iterators.

A :class:`StreamSource` adapts any iterator of TP tuples (in arrival order,
which may be arbitrarily out of event-time order) into a well-formed element
stream:

* every tuple is wrapped in a :class:`StreamEvent` with its arrival sequence
  number;
* a per-source **watermark** is maintained as ``max(start seen) - lateness``
  and emitted every ``watermark_every`` events, so downstream operators learn
  how far event time has provably progressed;
* events arriving *behind* the current watermark (disorder larger than the
  configured lateness bound) are **evicted** at the door and counted, never
  forwarded — the bounded-lateness contract downstream operators rely on;
* exhaustion of the underlying iterator emits a closing watermark
  (:data:`repro.stream.elements.CLOSED`), finalizing all remaining windows.

:func:`merge_tagged` interleaves two sources into the single tagged element
sequence the continuous join operators consume; the default round-robin
interleaving preserves each source's internal order (all the semantics
require) while exercising arbitrary cross-source arrival interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..relation import TPTuple
from ..runtime.driver import merge_edges
from .elements import CLOSED, LEFT, RIGHT, StreamElement, StreamEvent, Tagged, Watermark


@dataclass
class SourceStats:
    """Counters maintained by one ingesting source."""

    events_in: int = 0
    events_emitted: int = 0
    late_evicted: int = 0
    watermarks_emitted: int = 0
    max_event_start: Optional[int] = None


class StreamSource:
    """Wrap an arrival-ordered tuple iterator into a watermarked element stream.

    Args:
        tuples: TP tuples in arrival order (event-time order not required).
        lateness: bounded-lateness allowance; the watermark trails the
            largest interval start seen by this many time points.  Disorder
            within the bound is handled exactly; events later than the bound
            are evicted and counted in :attr:`stats`.
        watermark_every: emit a watermark after every this-many events.
        name: label used in diagnostics.
    """

    def __init__(
        self,
        tuples: Iterable[TPTuple],
        lateness: int = 0,
        watermark_every: int = 1,
        name: str = "",
    ) -> None:
        if lateness < 0:
            raise ValueError("lateness must be non-negative")
        if watermark_every <= 0:
            raise ValueError("watermark_every must be positive")
        self._tuples = tuples
        self._lateness = lateness
        self._watermark_every = watermark_every
        self.name = name
        self.stats = SourceStats()
        self._watermark: float = float("-inf")

    @property
    def watermark(self) -> float:
        """The current watermark value of this source."""
        return self._watermark

    def __iter__(self) -> Iterator[StreamElement]:
        since_watermark = 0
        for tp_tuple in self._tuples:
            self.stats.events_in += 1
            if tp_tuple.start < self._watermark:
                # Later than the lateness bound: evict at ingestion.
                self.stats.late_evicted += 1
                continue
            if (
                self.stats.max_event_start is None
                or tp_tuple.start > self.stats.max_event_start
            ):
                self.stats.max_event_start = tp_tuple.start
            yield StreamEvent(tp_tuple, sequence=self.stats.events_emitted)
            self.stats.events_emitted += 1
            since_watermark += 1
            if since_watermark >= self._watermark_every:
                since_watermark = 0
                advanced = self.stats.max_event_start - self._lateness
                if advanced > self._watermark:
                    self._watermark = advanced
                    self.stats.watermarks_emitted += 1
                    yield Watermark(advanced)
        self._watermark = CLOSED
        self.stats.watermarks_emitted += 1
        yield Watermark(CLOSED)


def merge_tagged(
    left: Iterable[StreamElement],
    right: Iterable[StreamElement],
    seed: Optional[int] = None,
) -> Iterator[Tagged]:
    """Interleave two element streams into one tagged sequence.

    The two-edge case of the router's one interleaving rule
    (:func:`repro.runtime.driver.merge_edges`): round-robin with
    ``seed=None``; with a seed, each step picks a random non-exhausted side,
    exercising arbitrary cross-source arrival orders (each source's internal
    order is preserved, which is all the watermark semantics require).
    """
    edges = [(0, LEFT, left), (0, RIGHT, right)]
    for _edge, _target, side, element in merge_edges(edges, seed):
        yield Tagged(side, element)
