"""Order statistics the benchmark reports: medians, quartiles, tail percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Tail percentiles tried from the top; the first one the sample supports wins.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)

#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile (``rank`` in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    index = max(0, math.ceil(rank / 100.0 * len(ordered)) - 1)
    return ordered[index]


def samples_beyond(count: int, rank: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank cut."""
    return count - math.ceil(rank / 100.0 * count)


def tail_rank(count: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with >= MIN_BEYOND samples beyond it.

    ``None`` when even the lowest rung is unsupported: the sample is too
    small to speak of a tail at all.
    """
    for rank in ladder:
        if samples_beyond(count, rank) >= MIN_BEYOND:
            return rank
    return None


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        only = float(samples[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's spread)."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else float("inf")


def relative_worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` reading is worse (<0: better)."""
    if not first:
        return float("inf") if second else 0.0
    change = (second - first) / first
    return change if better == "lower" else -change
