"""StreamQuery API tests: registration, config, parallel execution, stats."""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog, CatalogError
from repro.lineage import canonical
from repro.stream import StreamQuery


def _catalog(random_relation_factory, seed=0, **sizes):
    left, right, theta = random_relation_factory(seed, **sizes)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=4, seed=seed)))
    catalog.register_stream("r", stream_def(right, ReplayConfig(disorder=4, seed=seed + 1)))
    return catalog, left, right, theta


def test_unknown_stream_fails_at_registration(random_relation_factory):
    catalog, *_ = _catalog(random_relation_factory)
    with pytest.raises(CatalogError):
        StreamQuery(catalog, "anti", "l", "missing", [("Key", "Key")])


def test_unknown_kind_fails_at_registration(random_relation_factory):
    catalog, *_ = _catalog(random_relation_factory)
    with pytest.raises(ValueError):
        StreamQuery(catalog, "semi", "l", "r", [("Key", "Key")])


def test_describe_names_the_query_shape(random_relation_factory):
    catalog, *_ = _catalog(random_relation_factory)
    query = StreamQuery(
        catalog, "anti", "l", "r", [("Key", "Key")],
        config=ExecutionOptions(partitions=3),
    )
    description = query.describe()
    assert "anti" in description and "partitions=3" in description


def test_result_statistics_are_consistent(random_relation_factory):
    catalog, left, right, _ = _catalog(random_relation_factory, left_size=20, right_size=20)
    query = StreamQuery(catalog, "left_outer", "l", "r", [("Key", "Key")])
    result = query.run(merge_seed=1)
    assert result.events_processed == len(left) + len(right)
    assert result.outputs_emitted == len(result.relation)
    assert result.elapsed_seconds > 0
    assert result.events_per_second > 0
    assert len(result.emit_latencies) == len(left)
    summary = result.latency_summary()
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["max_ms"]


def test_rerunning_a_registered_query_is_deterministic(random_relation_factory):
    catalog, *_ = _catalog(random_relation_factory, left_size=15, right_size=15)
    query = StreamQuery(catalog, "anti", "l", "r", [("Key", "Key")])

    def rows(result):
        return sorted(
            (t.fact, t.start, t.end, str(canonical(t.lineage)))
            for t in result.relation
        )

    assert rows(query.run(merge_seed=5)) == rows(query.run(merge_seed=5))


def test_non_equi_theta_forces_a_single_partition(random_relation_factory):
    _, left, right, _ = _catalog(random_relation_factory)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig()))
    catalog.register_stream("r", stream_def(right, ReplayConfig()))
    query = StreamQuery(
        catalog, "anti", "l", "r", (), config=ExecutionOptions(partitions=8)
    )
    # θ = true has an empty key: every event would hash to one worker and the
    # others would see watermarks only, so the graph's rule applies —
    # partitions > 1 needs ``on``.
    assert query.effective_partitions == 1
    result = query.run()
    assert result.partitions == 1
    assert result.workers == "inline"


def test_empty_theta_runs_one_worker_that_operates_every_element(
    random_relation_factory,
):
    catalog, left, right, _ = _catalog(random_relation_factory, left_size=30, right_size=30)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        (),
        config=ExecutionOptions(partitions=3, metrics=True),
    )
    result = query.run(merge_seed=3)
    (snapshot,) = result.metrics_snapshots
    counters = snapshot["counters"]
    assert counters["elements_operated"] == counters["elements_routed"] > len(left) + len(right)
    assert result.events_processed == len(left) + len(right)


def test_backpressure_engages_with_tiny_buffers(random_relation_factory):
    catalog, left, right, _ = _catalog(
        random_relation_factory, seed=2, left_size=60, right_size=60
    )
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, micro_batch_size=1, buffer_capacity=1),
    )
    result = query.run(merge_seed=2)
    # Watermarks are broadcast to both workers, so with capacity 1 the router
    # must have blocked at least once; correctness is unaffected.
    assert result.backpressure_blocks > 0
    assert result.outputs_emitted == len(result.relation)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ExecutionOptions(partitions=0)


def test_source_evictions_surface_in_late_dropped(random_relation_factory):
    """Lateness below the disorder evicts events at the source; the result says so."""
    left, right, _ = random_relation_factory(4, left_size=50, right_size=50)
    catalog = Catalog()
    catalog.register_stream(
        "l", stream_def(left, ReplayConfig(disorder=20, lateness=0, seed=1))
    )
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=20, lateness=0, seed=2))
    )
    query = StreamQuery(catalog, "anti", "l", "r", [("Key", "Key")])
    result = query.run(merge_seed=4)
    assert result.late_dropped > 0


def test_worker_failure_raises_instead_of_deadlocking(
    random_relation_factory, monkeypatch
):
    """A crashing worker must not leave the router blocked on a full buffer."""
    # Workers build their joins from the compiled spec (repro.dataflow.compile),
    # so the failure is injected at that seam.
    import repro.dataflow.compile as spec_module

    catalog, *_ = _catalog(random_relation_factory, seed=6, left_size=80, right_size=80)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, micro_batch_size=1, buffer_capacity=2),
    )

    real_factory = spec_module.continuous_join

    def failing_factory(*args, **kwargs):
        join = real_factory(*args, **kwargs)
        calls = {"count": 0}
        original_process = join.process

        def process(tagged):
            calls["count"] += 1
            if calls["count"] > 3:
                raise RuntimeError("injected worker failure")
            return original_process(tagged)

        join.process = process
        return join

    monkeypatch.setattr(spec_module, "continuous_join", failing_factory)

    import threading

    outcome: dict = {}

    def run():
        try:
            query.run(merge_seed=6)
            outcome["result"] = "returned"
        except RuntimeError as error:
            outcome["error"] = str(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "query.run deadlocked after a worker failure"
    assert outcome.get("error") == "injected worker failure"
