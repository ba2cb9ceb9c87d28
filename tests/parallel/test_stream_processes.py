"""Process-backed continuous execution: equality, stats, failure handling."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import ExecutionOptions
from repro.core import tp_anti_join, tp_left_outer_join
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.stream import StreamQuery
from tests.conftest import canonical_rows, make_random_relations, run_shard_job


def _register_pair(seed: int, disorder: int = 3, size: int = 30):
    left, right, theta = make_random_relations(
        seed=seed, left_size=size, right_size=size
    )
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=disorder, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=disorder, seed=seed + 1))
    )
    return catalog, left, right, theta


@pytest.mark.parametrize("kind,batch_join", [("anti", tp_anti_join), ("left_outer", tp_left_outer_join)])
def test_stream_query_processes_backend_matches_batch(kind, batch_join):
    catalog, left, right, theta = _register_pair(seed=31)
    query = StreamQuery(
        catalog,
        kind,
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="processes", micro_batch_size=8),
    )
    result = query.run(merge_seed=31)
    assert result.workers == "processes"
    assert result.partitions == 2
    assert result.events_processed == len(left) + len(right)
    batch = batch_join(left, right, theta, compute_probabilities=False)
    assert canonical_rows(result.relation, with_probability=False) == canonical_rows(
        batch, with_probability=False
    )


def test_processes_backend_reports_emit_latencies_per_positive_group():
    catalog, left, _right, _theta = _register_pair(seed=7)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="processes"),
    )
    result = query.run(merge_seed=7)
    # One latency sample per finalized positive tuple, all non-negative.
    assert len(result.emit_latencies) == len(left)
    assert all(latency >= 0.0 for latency in result.emit_latencies)


def test_worker_backend_config_is_validated():
    with pytest.raises(ValueError):
        ExecutionOptions(transport="fibers")


def test_describe_mentions_process_backend_only_when_parallel():
    catalog, _left, _right, _theta = _register_pair(seed=1)
    parallel = StreamQuery(
        catalog, "anti", "l", "r", [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="processes"),
    )
    inline = StreamQuery(
        catalog, "anti", "l", "r", [("Key", "Key")],
        config=ExecutionOptions(partitions=1, transport="processes"),
    )
    assert "workers=processes" in parallel.describe()
    assert "workers=processes" not in inline.describe()


def test_worker_failure_is_reported_to_the_router():
    catalog, *_ = _register_pair(seed=3)
    # An invalid join kind makes every worker fail while building its join.
    with pytest.raises(RuntimeError, match="failed"):
        run_shard_job(
            "processes", catalog, edit=lambda spec: replace(spec, kind="no_such_kind")
        )


def test_worker_start_failure_falls_back_to_threads(monkeypatch):
    """Environments without fork/spawn degrade to the thread transport — loudly."""
    from repro.runtime import WorkerStartError, transport as transport_module

    def refuse_start(self, job, placement=None):
        raise WorkerStartError("cannot start worker processes: denied")

    monkeypatch.setattr(transport_module.ProcessTransport, "start", refuse_start)
    catalog, left, right, theta = _register_pair(seed=5)
    query = StreamQuery(
        catalog,
        "anti",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="processes"),
    )
    with pytest.warns(RuntimeWarning, match="falling back to the thread transport"):
        result = query.run(merge_seed=5)
    assert result.workers == "threads"  # the backend that actually ran
    batch = tp_anti_join(left, right, theta, compute_probabilities=False)
    assert canonical_rows(result.relation, with_probability=False) == canonical_rows(
        batch, with_probability=False
    )


def test_bounded_queues_backpressure_the_router():
    catalog, _left, _right, _theta = _register_pair(seed=13, size=60)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(
            partitions=2, transport="processes", micro_batch_size=1, buffer_capacity=1
        ),
    )
    result = query.run()
    assert result.workers == "processes"
    # Tiny queues (one single-element batch in flight) must block the router
    # at least once on this workload — and the run must still be correct.
    assert result.backpressure_blocks > 0
    assert result.events_processed == 120
