"""Synthetic dataset generators standing in for the paper's real workloads."""

from .generators import (
    IntervalLengthDistribution,
    KeyDistribution,
    WorkloadConfig,
    generate_pair,
    generate_relation,
    uniform_subset,
)
from .meteo import DISTINCT_METRICS, meteo_config, meteo_pair
from .replay import (
    ReplayConfig,
    arrival_order,
    meteo_stream_pair,
    replay_source,
    stream_def,
    webkit_stream_pair,
)
from .statistics import WorkloadStatistics, mean_matches_per_tuple, workload_statistics
from .webkit import TUPLES_PER_FILE, webkit_config, webkit_pair

__all__ = [
    "DISTINCT_METRICS",
    "IntervalLengthDistribution",
    "KeyDistribution",
    "ReplayConfig",
    "TUPLES_PER_FILE",
    "WorkloadConfig",
    "WorkloadStatistics",
    "arrival_order",
    "generate_pair",
    "generate_relation",
    "mean_matches_per_tuple",
    "meteo_config",
    "meteo_pair",
    "meteo_stream_pair",
    "replay_source",
    "stream_def",
    "uniform_subset",
    "webkit_config",
    "webkit_pair",
    "webkit_stream_pair",
    "workload_statistics",
]
