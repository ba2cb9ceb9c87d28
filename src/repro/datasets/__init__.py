"""Synthetic dataset generators standing in for the paper's real workloads,
their summary statistics, and their replay as out-of-order streams."""

from .generators import (
    IntervalLengthDistribution,
    KeyDistribution,
    WorkloadConfig,
    generate_pair,
    generate_relation,
)
from .meteo import DISTINCT_METRICS, meteo_config, meteo_pair
from .replay import (
    ReplayConfig,
    arrival_order,
    stream_def,
)
from .statistics import WorkloadStatistics, workload_statistics
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
    "meteo_config",
    "meteo_pair",
    "stream_def",
    "webkit_config",
    "webkit_pair",
    "workload_statistics",
]
