"""Temporal substrate: half-open intervals and the segmentation the
baselines and the projection operator use."""

from .interval import Interval, IntervalError
from .timeline import partition_by_validity, segments_within

__all__ = [
    "Interval",
    "IntervalError",
    "partition_by_validity",
    "segments_within",
]
