"""Property-based shard determinism: parallel ≡ serial across 1/2/4 shards.

Hypothesis generates random constraint-valid TP relation pairs; for every
generated workload the hash-partitioned runs (``parallel_tp_join`` on socket
seats, stream thread partitions, stream process and socket partitions) must
produce output **tuple-for-tuple equal** — in canonical order — to the
single-process run, for partition counts 1, 2 and 4.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions
from repro.core import tp_anti_join, tp_left_outer_join
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.parallel import canonical_order, parallel_tp_join
from repro.stream import StreamQuery
from tests.conftest import make_random_relations

PARTITION_COUNTS = (1, 2, 4)

#: A workload is summarised by its generator inputs — the factory guarantees
#: TP-constraint validity for any of them.
workloads = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=4, max_value=28),      # left size
    st.integers(min_value=4, max_value=28),      # right size
    st.integers(min_value=1, max_value=5),       # distinct join keys
)


def identity_rows(tuples, with_probability):
    ordered = canonical_order(list(tuples))
    rows = [(t.fact, t.start, t.end, str(t.lineage)) for t in ordered]
    if with_probability:
        rows = [row + (t.probability,) for row, t in zip(rows, ordered)]
    return rows


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads, st.sampled_from(["anti", "left_outer"]), st.booleans())
def test_batch_parallel_equals_serial_across_partition_counts(
    workload, kind, probabilities
):
    seed, left_size, right_size, keys = workload
    left, right, theta = make_random_relations(
        seed=seed, left_size=left_size, right_size=right_size, num_keys=keys
    )
    serial_join = tp_anti_join if kind == "anti" else tp_left_outer_join
    serial = serial_join(left, right, theta, compute_probabilities=probabilities)
    expected = identity_rows(serial, with_probability=True)
    for partitions in PARTITION_COUNTS:
        result = parallel_tp_join(
            kind,
            left,
            right,
            [("Key", "Key")],
            workers=partitions,
            compute_probabilities=probabilities,
        )
        assert identity_rows(result.relation, with_probability=True) == expected, (
            f"kind={kind} partitions={partitions} diverged"
        )


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads, st.integers(min_value=0, max_value=6))
def test_stream_thread_partitions_equal_inline_run(workload, disorder):
    seed, left_size, right_size, keys = workload
    left, right, _theta = make_random_relations(
        seed=seed, left_size=left_size, right_size=right_size, num_keys=keys
    )
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=disorder, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=disorder, seed=seed + 1))
    )
    expected = None
    for partitions in PARTITION_COUNTS:
        query = StreamQuery(
            catalog,
            "left_outer",
            "l",
            "r",
            [("Key", "Key")],
            config=ExecutionOptions(partitions=partitions, micro_batch_size=4),
        )
        rows = identity_rows(query.run(merge_seed=seed).relation, with_probability=False)
        if expected is None:
            expected = rows
        else:
            assert rows == expected, f"partitions={partitions} diverged"


# The out-of-process transports pay a fork (and, for sockets, a TCP
# handshake) per partition per example, so they get a smaller example budget
# than the in-process properties above.  The drawn transport must be
# invisible in the settled output for every partition count.
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["processes", "sockets"]),
)
def test_stream_worker_transports_equal_inline_run(seed, transport):
    left, right, _theta = make_random_relations(seed=seed, left_size=20, right_size=20)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=3, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=3, seed=seed + 1))
    )
    expected = None
    for partitions in PARTITION_COUNTS:
        query = StreamQuery(
            catalog,
            "anti",
            "l",
            "r",
            [("Key", "Key")],
            config=ExecutionOptions(
                partitions=partitions, transport=transport, micro_batch_size=4
            ),
        )
        rows = identity_rows(query.run(merge_seed=seed).relation, with_probability=False)
        if expected is None:
            expected = rows
        else:
            assert rows == expected, f"partitions={partitions} diverged"
