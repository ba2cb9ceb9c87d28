"""Sampling operator state into a worker's :class:`MetricsRegistry`.

The hot loops only bump three flow counters; everything else — revision
counters, open-group gauges, watermark lag, probability memo hit rates —
already lives in the operators' own stats objects and state, so
it is *sampled* here on demand (periodic snapshot or final report)
instead of being counted twice on the hot path.  Every node runs the one
operator, :class:`~repro.dataflow.operators.RevisionJoin`, so every worker
— a stream query's too — reports the same counters and gauges.
"""

from __future__ import annotations

import math
import time

from .metrics import MetricsRegistry

__all__ = ["sample_operator"]

#: MaintainerStats counters copied verbatim per maintainer side.
_MAINTAINER_COUNTERS = (
    "positives_in",
    "negatives_in",
    "late_positives_dropped",
    "late_negatives_dropped",
    "groups_finalized",
    "negatives_evicted",
    "positives_retracted",
    "negatives_retracted",
)

#: RevisionJoinStats counters, prefixed ``revision_`` where ambiguous.
_REVISION_COUNTERS = {
    "emits": "revision_emits",
    "retracts": "revision_retracts",
    "refines": "revision_refines",
    "groups_published_early": "groups_published_early",
    "groups_settled": "groups_settled",
    "inputs_retracted": "inputs_retracted",
}


def _sample_maintainer(registry: MetricsRegistry, maintainer, prefix: str) -> dict:
    stats = maintainer.stats
    for name in _MAINTAINER_COUNTERS:
        registry.set_counter(f"{prefix}{name}", getattr(stats, name))
    registry.gauge(f"{prefix}peak_open_positives").set(stats.peak_open_positives)
    return maintainer.probability_counters()


def sample_operator(registry: MetricsRegistry, join) -> None:
    """Copy one operator's current state into its worker registry."""
    stats = join.stats
    for field_name, metric in _REVISION_COUNTERS.items():
        registry.set_counter(metric, getattr(stats, field_name))

    forward = join.maintainer
    reverse = join.reverse_maintainer

    probability = _sample_maintainer(registry, forward, "")
    open_groups = forward.open_positives
    indexed = forward.indexed_negatives
    if reverse is not None:
        for name, value in _sample_maintainer(registry, reverse, "reverse_").items():
            probability[name] = probability.get(name, 0) + value
        open_groups += reverse.open_positives
        indexed += reverse.indexed_negatives
    for name, value in probability.items():
        registry.set_counter(name, value)
    registry.gauge("open_groups").set(open_groups)
    registry.gauge("indexed_negatives").set(indexed)

    watermark = join.derived_watermark()
    registry.gauge("watermark").set(watermark)
    frontier = join.frontier
    registry.gauge("frontier").set(frontier)
    if math.isfinite(frontier) and math.isfinite(watermark):
        registry.gauge("watermark_lag").set(frontier - watermark)
    else:
        registry.gauge("watermark_lag").set(0.0)
    registry.gauge("sampled_at").set(time.time())
