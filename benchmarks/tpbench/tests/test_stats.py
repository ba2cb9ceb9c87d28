import statistics

import paths  # noqa: F401
from stats import (
    percentile,
    quartiles,
    relative_spread,
    relative_worsening,
    samples_beyond,
    tail_rank,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_tail_rank_is_the_highest_percentile_with_ten_samples_beyond():
    # 1000 samples: exactly ten lie beyond the 99th percentile.
    assert samples_beyond(1000, 99) == 10
    assert tail_rank(1000) == 99
    # One fewer and p99 has nine beyond it: fall to p95.
    assert samples_beyond(999, 99) == 9
    assert tail_rank(999) == 95
    assert tail_rank(200) == 95
    assert tail_rank(199) == 90
    assert tail_rank(100) == 90
    assert tail_rank(99) == 75
    assert tail_rank(40) == 75
    # Too few samples to speak of a tail at all.
    assert tail_rank(39) is None


def test_tail_rank_always_leaves_ten_beyond():
    for count in range(40, 3000, 7):
        rank = tail_rank(count)
        assert samples_beyond(count, rank) >= 10
        higher = [r for r in (99, 95, 90, 75) if r > rank]
        assert all(samples_beyond(count, r) < 10 for r in higher)


def test_spread_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert relative_spread(values) == (q3 - q1) / q2


def test_worsening_respects_direction():
    assert relative_worsening(100.0, 110.0, "lower") == 0.10
    assert relative_worsening(100.0, 110.0, "higher") == -0.10
    assert relative_worsening(100.0, 90.0, "higher") == 0.10
