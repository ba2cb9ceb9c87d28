"""Temporal substrate: half-open intervals, the segmentation used by the
baselines, and the interval sets the window tests check coverage with."""

from .interval import Interval, IntervalError
from .intervalset import IntervalSet
from .timeline import Timeline, partition_by_validity, segments, segments_within

__all__ = [
    "Interval",
    "IntervalError",
    "IntervalSet",
    "Timeline",
    "partition_by_validity",
    "segments",
    "segments_within",
]
