"""Partition planner tests: stable key hashing and the state-size cost model."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.parallel import ParallelConfig, choose_partitions, estimate_join_state
from repro.relation import stable_key_hash


def test_stable_hash_is_stable_across_interpreter_processes():
    """Unlike builtin hash(), shard routing must not depend on PYTHONHASHSEED."""
    values = []
    for _ in range(2):
        output = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.relation import stable_key_hash; "
                "print(stable_key_hash(('ZAK', 3)))",
            ],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        values.append(output.stdout.strip())
    assert values[0] == values[1] == str(stable_key_hash(("ZAK", 3)))


def test_estimate_join_state_uses_key_selectivity():
    # 1000 positives, 500 negatives over 10 distinct keys → 50 matches each.
    assert estimate_join_state(1000, 500, 10) == 1000 * 50.0
    # A selective key (all distinct) bottoms out at one match per positive.
    assert estimate_join_state(1000, 500, 500) == 1000.0


def test_choose_partitions_scales_with_state_and_respects_bounds():
    config = ParallelConfig(max_workers=4, state_per_worker=1000.0, min_tuples=100)
    assert choose_partitions(500.0, 1000, config) == 1
    assert choose_partitions(1500.0, 1000, config) == 2
    assert choose_partitions(1_000_000.0, 1000, config) == 4  # capped
    # Small inputs never shard, whatever the state estimate says.
    assert choose_partitions(1_000_000.0, 50, config) == 1
    # A single join key cannot be split: extra workers would only idle.
    assert choose_partitions(1_000_000.0, 1000, config, distinct_keys=1) == 1
    assert choose_partitions(1_000_000.0, 1000, config, distinct_keys=3) == 3


def test_parallel_config_validation():
    with pytest.raises(ValueError):
        ParallelConfig(max_workers=0)
    with pytest.raises(ValueError):
        ParallelConfig(state_per_worker=0.0)


def test_stable_hash_is_equality_invariant_across_numeric_types():
    """a == b must imply the same shard, exactly as the serial join's ==.

    The serial equi-join matches keys with ==, under which 1 == 1.0 == True;
    routing them to different shards would silently lose matches.
    """
    from decimal import Decimal
    from fractions import Fraction

    one = stable_key_hash((1,))
    assert one == stable_key_hash((1.0,)) == stable_key_hash((True,))
    assert one == stable_key_hash((Decimal(1),)) == stable_key_hash((Fraction(1),))
    assert stable_key_hash(("ZAK", 2)) == stable_key_hash(("ZAK", 2.0))
    # And stays discriminating for genuinely different keys.
    assert stable_key_hash((1,)) != stable_key_hash((2,))


def test_cross_type_equal_keys_join_identically_in_parallel():
    from repro.core import tp_left_outer_join
    from repro.parallel import parallel_tp_join
    from repro.relation import Schema, TPRelation, equi_join_on
    from tests.conftest import canonical_rows

    left = TPRelation.from_rows(
        Schema.of("K", "V"),
        [(1, "x", "l1", 0, 10, 0.5), (2, "y", "l2", 0, 10, 0.5)],
        name="l",
    )
    right = TPRelation.from_rows(
        Schema.of("K", "W"),
        [(1.0, "m", "r1", 2, 6, 0.5), (2.0, "n", "r2", 4, 8, 0.5)],
        name="r",
    )
    serial = tp_left_outer_join(
        left, right, equi_join_on(left.schema, right.schema, [("K", "K")])
    )
    for workers in (2, 4):
        result = parallel_tp_join("left_outer", left, right, [("K", "K")], workers=workers)
        assert canonical_rows(result.relation) == canonical_rows(serial)
