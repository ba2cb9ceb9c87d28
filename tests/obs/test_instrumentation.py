"""Engine-wide instrumentation: consistent counters across all transports.

The same workload, driven over every runtime transport, must produce the
same counter totals — the snapshots merely ride different carriers
(direct sampling, thread-shared lists, process queues, socket frames).
Live (mid-run) delivery is exercised separately per carrier, including a
remote ``python -m repro.runtime.worker --listen`` placement worker.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.obs import MetricsCollector
from repro.stream import StreamQuery
from tests.dataflow.conftest import make_stream_catalog

ON = (("Key", "Key"),)
TREE = [
    NodeSpec("n1", "left_outer", "a", "b", ON),
    NodeSpec("n2", "anti", "n1", "c", ON),
]
TRANSPORTS = ("inline", "threads", "processes", "sockets")


def _run_with_metrics(backend: str, seed: int = 11):
    catalog, *_ = make_stream_catalog(seed, sizes=(25, 25, 20), disorder=4)
    config = ExecutionOptions(early_emit=True, metrics=True)
    query = DataflowQuery(catalog, TREE, config)
    result = query.run(backend=backend, merge_seed=seed)
    aggregator = query.metrics()
    assert aggregator is not None
    return result, aggregator


@pytest.mark.parametrize("backend", TRANSPORTS)
def test_counters_match_final_stats_on_every_transport(backend):
    result, aggregator = _run_with_metrics(backend)
    totals = aggregator.totals()
    # Every element a worker accepted was handed to its operator.
    assert totals["elements_routed"] == totals["elements_operated"] > 0
    # The sampled revision counters agree with the authoritative result
    # stats (summed over the two nodes).
    for counter, attribute in (
        ("revision_emits", "emits"),
        ("revision_retracts", "retracts"),
        ("revision_refines", "refines"),
        ("groups_settled", "groups_settled"),
    ):
        expected = sum(
            getattr(node.stats, attribute) for node in result.nodes.values()
        )
        assert totals[counter] == expected, counter
    # One snapshot per (node, partition) worker, each carrying labels.
    snapshots = aggregator.snapshots()
    assert len(snapshots) == len(TREE)
    assert {snap["labels"]["node"] for snap in snapshots} == {"n1", "n2"}


def test_counter_totals_identical_across_transports():
    """A single-node graph has one producer per inbox, so every carrier
    sees the identical element sequence: what the worker routes and
    operates on, and the groups it settles, match bit-for-bit.

    Revision traffic does not: an early-emitting operator publishes each
    changed group once per micro-batch, and where the batches end depends
    on the carrier (every element on inline, whatever the inbox held on
    the queued transports).  What holds on every carrier is that the
    revisions add up to the settled output, emits + refines − retracts =
    settled.  (Multi-node pipelines also interleave an internal edge with
    driver-routed source events — the per-run invariants for those are
    covered above.)
    """
    single = [NodeSpec("n1", "left_outer", "a", "b", ON)]
    baseline = None
    for backend in TRANSPORTS:
        catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
        query = DataflowQuery(
            catalog, single, ExecutionOptions(early_emit=True, metrics=True)
        )
        result = query.run(backend=backend, merge_seed=11)
        totals = query.metrics().totals()
        reading = {
            name: totals[name]
            for name in ("elements_routed", "elements_operated", "groups_settled")
        }
        net = (
            totals["revision_emits"]
            + totals["revision_refines"]
            - totals["revision_retracts"]
        )
        assert net == len(result.nodes["n1"].relation) > 0, backend
        if baseline is None:
            baseline = reading
        else:
            assert reading == baseline, backend


def test_metrics_off_is_the_default_and_returns_none():
    catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
    query = DataflowQuery(catalog, TREE, ExecutionOptions(early_emit=True))
    result = query.run(backend="inline", merge_seed=11)
    assert query.metrics() is None
    assert result.metrics_snapshots == []
    assert result.metrics() is None


def test_stream_query_metrics_across_partitions():
    catalog, *_ = make_stream_catalog(13, sizes=(30, 30, 10), disorder=3)
    query = StreamQuery(
        catalog,
        "left_outer",
        "a",
        "b",
        ON,
        config=ExecutionOptions(partitions=2, transport="threads", metrics=True),
    )
    result = query.run(merge_seed=13)
    aggregator = query.metrics()
    assert aggregator is not None
    assert len(aggregator.snapshots()) == 2
    totals = aggregator.totals()
    assert totals["elements_routed"] == totals["elements_operated"] > 0
    assert totals["revision_emits"] == result.outputs_emitted
    skew = aggregator.load_skew()
    assert set(skew["per_worker"]) == {"0", "1"}
    assert skew["max"] >= skew["mean"] > 0


def test_probability_cache_counters_flow_through():
    catalog, *_ = make_stream_catalog(17, sizes=(20, 20, 10), disorder=3)
    config = ExecutionOptions(
        early_emit=True, metrics=True, materialize_probabilities=True
    )
    query = DataflowQuery(catalog, TREE, config)
    query.run(backend="inline", merge_seed=17)
    totals = query.metrics().totals()
    assert totals["probability_cache_misses"] > 0
    # Republished windows of one key share memoised sub-expressions.
    assert totals["probability_cache_hits"] > 0
    assert not any(name.startswith("probability_intern") for name in totals)


def test_explain_analyze_includes_worker_metrics():
    catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
    query = DataflowQuery(
        catalog, TREE, ExecutionOptions(early_emit=True, metrics=True)
    )
    result = query.run(backend="threads", merge_seed=11)
    report = result.explain_analyze()
    assert "worker metrics:" in report
    assert "flow: routed=" in report
    assert "n1 [left_outer]" in report


def test_taps_coexist_with_metrics_and_read_them_live():
    """Satellite: in-process taps and the metrics subsystem compose —
    and a tap makes a deterministic same-thread point to read live
    inline metrics mid-run."""
    from repro.dataflow.executor import run_graph
    from repro.dataflow.graph import DataflowGraph

    catalog, *_ = make_stream_catalog(11, sizes=(25, 25, 20), disorder=4)
    graph = DataflowGraph(catalog, TREE)
    collector = MetricsCollector()
    tapped = []
    live_readings = []

    def tap(_channel_id, element) -> None:
        tapped.append(element)
        if len(tapped) == 1:
            aggregator = collector.aggregate()
            if aggregator is not None:
                live_readings.append(aggregator.totals())

    outcome = run_graph(
        graph,
        ExecutionOptions(early_emit=True, metrics=True),
        11,
        transport="inline",
        taps={"n2": tap},
        collector=collector,
    )
    assert tapped, "tap never fired"
    assert live_readings, "no live reading mid-run"
    final = collector.aggregate().totals()
    # The mid-run reading is a prefix of the final totals.
    assert live_readings[0]["elements_routed"] <= final["elements_routed"]
    assert outcome.metrics


def test_tap_error_message_points_at_metrics():
    from repro.dataflow.executor import run_graph
    from repro.dataflow.graph import DataflowGraph

    catalog, *_ = make_stream_catalog(11, sizes=(10, 10, 10))
    graph = DataflowGraph(catalog, TREE)
    with pytest.raises(ValueError, match="metrics=True") as excinfo:
        run_graph(
            graph,
            ExecutionOptions(early_emit=True),
            11,
            transport="processes",
            taps={"n2": lambda *args: None},
        )
    assert "in-process callables" in str(excinfo.value)
    assert "StreamQuery.metrics()" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# live (mid-run) delivery per carrier
# --------------------------------------------------------------------------- #
def _throttled(elements, delay: float = 0.002):
    for element in elements:
        time.sleep(delay)
        yield element


def _shard_run(
    transport: str,
    collector,
    placement=None,
    seed: int = 19,
    metrics_interval: float = 0.05,
    wrap=_throttled,
):
    """Drive the router over throttled source edges so the run outlives
    several metrics intervals."""
    from repro.datasets import ReplayConfig, stream_def
    from repro.engine import Catalog
    from tests.conftest import make_random_relations, run_shard_job

    left, right, _theta = make_random_relations(
        seed=seed, left_size=60, right_size=60
    )
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=3, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=3, seed=seed + 1))
    )
    return run_shard_job(
        transport,
        catalog,
        ExecutionOptions(
            # ``inline`` is a transport of the router, not a value of the knob.
            transport="threads" if transport == "inline" else transport,
            placement=placement,
            metrics=True,
            metrics_interval=metrics_interval,
        ),
        wrap=wrap,
        collector=collector,
    )


@pytest.mark.parametrize("transport", ("threads", "processes", "sockets"))
def test_live_metrics_mid_run(transport):
    collector = MetricsCollector()
    live = []
    done = threading.Event()

    def poll() -> None:
        while not done.is_set():
            snapshots = collector.snapshots()
            if snapshots:
                live.append(len(snapshots))
            time.sleep(0.02)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        _reports, events, _blocks, ran, *_ = _shard_run(transport, collector)
    finally:
        done.set()
        poller.join()
    assert events > 0
    assert live, f"no live snapshot ever observed on {ran}"
    # After the run the collector serves the final report snapshots.
    finals = collector.snapshots()
    assert len(finals) == 2
    assert sum(
        snap["counters"]["elements_routed"] for snap in finals
    ) >= events


class _SessionKeepingCollector(MetricsCollector):
    """Remembers the session the router attached, for reads after the run."""

    session = None

    def attach(self, session) -> None:
        self.session = session
        super().attach(session)


@pytest.mark.parametrize("transport", ("inline", "threads", "processes", "sockets"))
def test_session_serves_final_snapshots_once_results_arrived(transport):
    """A run shorter than the metrics interval ships no periodic snapshot;
    once a worker's result is in, the session itself must still serve that
    worker's final one — on every transport alike."""
    collector = _SessionKeepingCollector()
    reports, events, _blocks, ran, *_ = _shard_run(
        transport, collector, metrics_interval=60, wrap=iter
    )
    assert ran == transport and events > 0
    served = collector.session.metrics()
    assert served == [report.metrics for report in reports]
    assert len(served) == 2
    assert sum(snap["counters"]["elements_routed"] for snap in served) >= events


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_live_metrics_from_remote_entrypoint_workers():
    """Snapshots cross the wire from `python -m repro.runtime.worker`."""
    from repro.runtime import Placement

    ports = [_free_port(), _free_port()]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker",
                "--listen",
                f"127.0.0.1:{port}",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for port in ports
    ]
    try:
        for worker in workers:
            assert "listening on" in worker.stdout.readline()
        placement = Placement(tuple(f"127.0.0.1:{port}" for port in ports))
        collector = MetricsCollector()
        live = []
        done = threading.Event()

        def poll() -> None:
            while not done.is_set():
                snapshots = collector.snapshots()
                if snapshots:
                    live.append(len(snapshots))
                time.sleep(0.02)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            _reports, _events, _blocks, ran, *_ = _shard_run(
                "sockets", collector, placement=placement
            )
        finally:
            done.set()
            poller.join()
        assert ran == "sockets"
        assert live, "no live snapshot arrived from the remote workers"
        finals = collector.snapshots()
        assert len(finals) == 2
        assert all(snap["counters"]["elements_routed"] > 0 for snap in finals)
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.wait(timeout=10)
            worker.stdout.close()
