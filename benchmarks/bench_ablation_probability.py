"""Ablation A2 — probability computation strategies on join lineages.

The lineages produced by TP joins with negation are read-once (each event
variable occurs at most once), so the exact computation's independence fast
path applies; Monte-Carlo sampling is the structure-oblivious alternative.
This ablation measures exact computation against sampling at two sample
counts on the lineages of a full left outer join result.
"""

from __future__ import annotations

import pytest

from repro.core import tp_left_outer_join
from repro.lineage import MonteCarloEstimator, ProbabilityComputer, is_read_once


@pytest.fixture(scope="module")
def join_lineages(webkit_join_workload):
    positive, negative, theta = webkit_join_workload
    result = tp_left_outer_join(positive, negative, theta, compute_probabilities=False)
    return result.events, [t.lineage for t in result]


@pytest.mark.benchmark(group="ablation-probability")
def test_ablation_exact_probability(benchmark, join_lineages):
    events, lineages = join_lineages

    def compute_all():
        computer = ProbabilityComputer(events)
        return [computer.probability(lineage) for lineage in lineages]

    values = benchmark(compute_all)
    assert all(0.0 <= value <= 1.0 for value in values)


@pytest.mark.benchmark(group="ablation-probability")
def test_ablation_monte_carlo_200_samples(benchmark, join_lineages):
    events, lineages = join_lineages

    def estimate_all():
        estimator = MonteCarloEstimator(events, seed=1)
        return [estimator.estimate(lineage, samples=200).value for lineage in lineages]

    values = benchmark(estimate_all)
    assert all(0.0 <= value <= 1.0 for value in values)


@pytest.mark.benchmark(group="ablation-probability")
def test_ablation_monte_carlo_1000_samples(benchmark, join_lineages):
    events, lineages = join_lineages

    def estimate_all():
        estimator = MonteCarloEstimator(events, seed=1)
        return [estimator.estimate(lineage, samples=1000).value for lineage in lineages]

    values = benchmark(estimate_all)
    assert all(0.0 <= value <= 1.0 for value in values)


def test_join_lineages_are_read_once(join_lineages):
    """The structural property the exact fast path relies on holds for every lineage."""
    _events, lineages = join_lineages
    assert all(is_read_once(lineage) for lineage in lineages)
