"""Continuous-query subsystem: unbounded TP streams with watermarks.

Layers, bottom to top:

* :mod:`repro.stream.elements` — events, watermarks, tagged merges.
* :mod:`repro.stream.source` — ingestion with per-source watermarks and
  bounded-lateness eviction.
* :mod:`repro.stream.incremental` — per-key overlap state with
  watermark-driven, retraction-free window finalization.
* :mod:`repro.stream.operators` — :class:`ContinuousJoin`, the one
  continuous operator (:class:`~repro.dataflow.RevisionJoin`, for the five
  join kinds of :data:`repro.core.joins.TABLE_II`) as a caller that reads
  finalized tuples builds it.
* :mod:`repro.stream.query` — registered streams and the
  :class:`StreamQuery` API, a one-node
  :class:`~repro.dataflow.DataflowQuery` of K key-partitioned workers.
"""

from ..core.joins import JOIN_KINDS, REVERSE_KINDS
from .elements import (
    CLOSED,
    LEFT,
    RIGHT,
    StreamElement,
    StreamEvent,
    Tagged,
    Watermark,
    tag,
)
from .incremental import (
    FinalizedGroup,
    IncrementalWindowMaintainer,
    MaintainerStats,
    OpenPositive,
)
from .operators import ContinuousJoin, continuous_join, theta_from_pairs
from .query import StreamDef, StreamQuery, StreamQueryResult, StreamStats
from .source import SourceStats, StreamSource, merge_tagged

__all__ = [
    "CLOSED",
    "ContinuousJoin",
    "FinalizedGroup",
    "IncrementalWindowMaintainer",
    "JOIN_KINDS",
    "LEFT",
    "MaintainerStats",
    "OpenPositive",
    "REVERSE_KINDS",
    "RIGHT",
    "SourceStats",
    "StreamDef",
    "StreamElement",
    "StreamEvent",
    "StreamQuery",
    "StreamQueryResult",
    "StreamSource",
    "StreamStats",
    "Tagged",
    "Watermark",
    "continuous_join",
    "merge_tagged",
    "tag",
    "theta_from_pairs",
]
