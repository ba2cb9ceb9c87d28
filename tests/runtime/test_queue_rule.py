"""The one queue rule: a worker inbox holds one micro-batch.

A thread or socket-seat inbox is a channel of ``micro_batch_size``
elements; a producer puts a whole batch at once, so the depth can reach one
batch plus less than one more — below ``2 × micro_batch_size``.  A process
queue holds two messages, and a processes run leaves no queue behind: no
feeder thread and no file descriptor outlive its session.  Neither do a
sockets run's spawn queue and seat processes.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec, assert_converged
from repro.dataflow.operators import RevisionJoin
from repro.runtime.sockets import SocketTransport
from tests.conftest import run_shard_job
from tests.dataflow.conftest import make_stream_catalog
from tests.recovery.conftest import query_catalog

MICRO = 4
TREE = [
    NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
    NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
]


def slow_operator(monkeypatch, operator, seconds: float) -> None:
    """``operator.process`` sleeps ``seconds`` per step, so producers run
    ahead of it (seats forked from here on inherit the patch)."""
    process = operator.process

    def slowed(self, tagged):
        time.sleep(seconds)
        return process(self, tagged)

    monkeypatch.setattr(operator, "process", slowed)


def inbox_peaks(snapshots) -> list:
    return [snapshot["gauges"]["inbox_high_watermark"] for snapshot in snapshots]


def test_buffer_capacity_is_no_longer_a_knob():
    with pytest.raises(TypeError):
        ExecutionOptions(buffer_capacity=1024)
    assert ExecutionOptions().buffer_capacity == ExecutionOptions().micro_batch_size
    assert ExecutionOptions(micro_batch_size=7).buffer_capacity == 7


def test_thread_inboxes_hold_one_micro_batch(monkeypatch):
    slow_operator(monkeypatch, RevisionJoin, 0.0005)
    catalog, *_ = make_stream_catalog(41, sizes=(60, 60, 40))
    options = ExecutionOptions(early_emit=True, metrics=True, micro_batch_size=MICRO)
    query = DataflowQuery(catalog, TREE, options)
    result = query.run(merge_seed=3, backend="threads")
    assert result.backend == "threads"
    assert_converged(result, catalog, TREE)
    peaks = inbox_peaks(result.metrics_snapshots)
    assert len(peaks) == 2
    assert all(0 < peak < 2 * MICRO for peak in peaks), peaks
    assert result.backpressure_blocks > 0


def test_seat_inboxes_hold_one_micro_batch(monkeypatch):
    slow_operator(monkeypatch, RevisionJoin, 0.002)
    catalog, _left, _right = query_catalog(43, left_size=40, right_size=40)
    options = ExecutionOptions(metrics=True, micro_batch_size=MICRO)
    reports, _events, _blocks, backend, *_ = run_shard_job(
        "sockets", catalog, options, partitions=2
    )
    assert backend == "sockets"
    peaks = inbox_peaks(report.metrics for report in reports)
    assert len(peaks) == 2
    assert all(0 < peak < 2 * MICRO for peak in peaks), peaks


# --------------------------------------------------------------------------- #
# a processes run releases its queues
# --------------------------------------------------------------------------- #
def _descriptors() -> set:
    return set(os.listdir("/proc/self/fd"))


def _feeder_threads() -> list:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "QueueFeederThread" and thread.is_alive()
    ]


def _assert_released(before: set, deadline: float = 5.0) -> None:
    """No feeder thread and no new descriptor remain.  After a failure the
    session does not wait for its feeders, so give them a moment to exit."""
    stop = time.monotonic() + deadline
    while _feeder_threads() and time.monotonic() < stop:
        time.sleep(0.01)
    assert _feeder_threads() == []
    assert _descriptors() - before == set()


@pytest.fixture()
def processes_catalog():
    catalog, _left, _right = query_catalog(47, left_size=30, right_size=30)
    options = ExecutionOptions(transport="processes", partitions=2)
    # Warm up once, so lazily opened process-wide descriptors are in place.
    run_shard_job("processes", catalog, options, partitions=2)
    return catalog, options


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_processes_run_leaves_no_queue_behind(processes_catalog):
    catalog, options = processes_catalog
    assert _feeder_threads() == []
    before = _descriptors()
    _reports, _events, _blocks, backend, *_ = run_shard_job(
        "processes", catalog, options, partitions=2
    )
    assert backend == "processes"
    _assert_released(before)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_failed_processes_run_leaves_no_queue_behind(processes_catalog, monkeypatch):
    catalog, options = processes_catalog
    process = RevisionJoin.process
    calls = {"count": 0}

    def failing(self, tagged):
        calls["count"] += 1
        if calls["count"] > 5:
            raise RuntimeError("injected worker failure")
        return process(self, tagged)

    monkeypatch.setattr(RevisionJoin, "process", failing)
    before = _descriptors()
    with pytest.raises(RuntimeError, match="injected worker failure"):
        run_shard_job("processes", catalog, options, partitions=2)
    _assert_released(before)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_sockets_run_releases_its_spawn_queue_and_seats(monkeypatch):
    """A finished run frees its descriptors while its session is still
    referenced: nothing waits for the session to be collected."""
    catalog, _left, _right = query_catalog(47, left_size=30, right_size=30)
    options = ExecutionOptions(partitions=2)
    run_shard_job("sockets", catalog, options, partitions=2)
    sessions = []
    start = SocketTransport.start

    def recording(self, job, placement=None):
        sessions.append(start(self, job, placement))
        return sessions[-1]

    monkeypatch.setattr(SocketTransport, "start", recording)
    before = len(os.listdir("/proc/self/fd"))
    _reports, _events, _blocks, backend, *_ = run_shard_job(
        "sockets", catalog, options, partitions=2
    )
    assert backend == "sockets"
    assert len(sessions) == 1 and not sessions[0].seat_processes
    assert len(os.listdir("/proc/self/fd")) == before
