"""Shared workloads for the paper-figure and ablation benchmarks.

The benchmarks regenerate the paper's figures at a reduced scale so that the
whole suite runs in minutes on a laptop; the experiment harness
(``python -m repro.harness``) runs the same computations at larger sizes and
``--paper-scale`` switches to the original 50K–200K inputs.

Workload pairs are generated once per session and shared by all benchmarks.
"""

from __future__ import annotations

import pytest

from repro.datasets import meteo_pair, webkit_pair
from repro.relation import EquiJoinCondition

#: Input size (tuples per relation) for the window-computation benchmarks.
WINDOW_BENCH_SIZE = 600
#: Input size for the full-join benchmarks (TA's nested-loop plan is quadratic).
JOIN_BENCH_SIZE = 250


def _with_theta(pair, key):
    positive, negative = pair
    theta = EquiJoinCondition(positive.schema, negative.schema, ((key, key),))
    return positive, negative, theta


@pytest.fixture(scope="session")
def webkit_window_workload():
    """WebKit-like workload for Fig. 5 / Fig. 6 style measurements."""
    return _with_theta(webkit_pair(WINDOW_BENCH_SIZE, seed=42), "File")


@pytest.fixture(scope="session")
def meteo_window_workload():
    """Meteo-like workload for Fig. 5 / Fig. 6 style measurements."""
    return _with_theta(meteo_pair(WINDOW_BENCH_SIZE, seed=42), "Metric")


@pytest.fixture(scope="session")
def webkit_join_workload():
    """WebKit-like workload for the Fig. 7 full-join measurements."""
    return _with_theta(webkit_pair(JOIN_BENCH_SIZE, seed=42), "File")


@pytest.fixture(scope="session")
def meteo_join_workload():
    """Meteo-like workload for the Fig. 7 full-join measurements."""
    return _with_theta(meteo_pair(JOIN_BENCH_SIZE, seed=42), "Metric")
