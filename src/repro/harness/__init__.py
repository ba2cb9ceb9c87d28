"""Experiment harness: re-run the paper's figures and report the series."""

from .experiments import (
    EXPERIMENT_GROUPS,
    EXPERIMENTS,
    ExperimentSpec,
    Measurement,
    SeriesSpec,
    resolve_experiments,
)
from .reporting import (
    bench_payload,
    environment_info,
    experiment_report,
    measurements_table,
    speedup_summary,
    write_bench_json,
    write_csv,
)
from .runner import RunResult, run_by_name, run_experiment

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_GROUPS",
    "ExperimentSpec",
    "Measurement",
    "RunResult",
    "SeriesSpec",
    "bench_payload",
    "environment_info",
    "experiment_report",
    "measurements_table",
    "resolve_experiments",
    "run_by_name",
    "run_experiment",
    "speedup_summary",
    "write_bench_json",
    "write_csv",
]
