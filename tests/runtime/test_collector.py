"""The collector policy of the processes the runtime owns.

A seat or process worker pauses automatic collection while any job runs
and collects once when the last one ends; library calls in someone else's
process leave the collector alone.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro import ExecutionOptions
from repro.runtime import Placement
from repro.runtime.collector import CollectorPolicy

from tests.conftest import run_shard_job
from tests.runtime.gc_probe import probed
from tests.runtime.test_transports import _register_pair
from tests.runtime.test_worker_shutdown import wait_for_line

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def collector_state():
    """Restore the test process's collector switch whatever a test does."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def full_collections():
    """Every full (generation-2) collection started while the test runs."""
    started: list = []

    def count(phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] == 2:
            started.append(info)

    gc.callbacks.append(count)
    yield started
    gc.callbacks.remove(count)


@pytest.mark.parametrize("enabled", [True, False])
def test_nested_and_concurrent_entries_restore_the_collector_exactly(
    enabled, collector_state
):
    (gc.enable if enabled else gc.disable)()
    thresholds = gc.get_threshold()
    policy = CollectorPolicy()
    entered, leave = threading.Event(), threading.Event()

    def other_job() -> None:
        with policy:
            entered.set()
            leave.wait(5.0)

    thread = threading.Thread(target=other_job)
    with policy:
        thread.start()
        assert entered.wait(5.0)
        with policy:
            assert not gc.isenabled()
        assert not gc.isenabled()
    # The other thread's job still runs: the collector stays off.
    assert not gc.isenabled()
    leave.set()
    thread.join(5.0)
    assert not thread.is_alive()
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == thresholds


def test_racing_jobs_never_see_the_collector_on(collector_state):
    """More threads than cores enter and leave one policy with a short
    switch interval: a lost update to the running count would re-enable
    the collector under a running job, or leave it off after the last."""
    policy = CollectorPolicy()
    seen_on: list = []
    frozen = gc.get_freeze_count()
    gc.freeze()  # the outermost exits' collections then traverse little
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def jobs() -> None:
        for _ in range(100):
            with policy:
                if gc.isenabled():
                    seen_on.append(True)

    threads = [threading.Thread(target=jobs) for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
        if not frozen:
            gc.unfreeze()
    assert not any(thread.is_alive() for thread in threads)
    assert seen_on == []
    assert gc.isenabled()


def test_exactly_one_full_collection_at_the_outermost_exit(
    collector_state, full_collections
):
    policy = CollectorPolicy()
    with policy:
        with policy:
            churn = [[index] for index in range(50_000)]
            del churn
        assert full_collections == []
    assert len(full_collections) == 1


def test_cyclic_garbage_of_a_job_is_reclaimed_when_the_job_ends(collector_state):
    class Node:
        pass

    policy = CollectorPolicy()
    with policy:
        with policy:
            node = Node()
            node.self = node
            alive = weakref.ref(node)
            del node
        assert alive() is not None  # an inner exit collects nothing
    assert alive() is None


def test_a_library_run_leaves_the_callers_collector_alone():
    catalog, *_ = _register_pair(seed=61)
    enabled, thresholds, frozen = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
    for transport in ("inline", "threads", "sockets"):
        run_shard_job(transport, catalog, ExecutionOptions(partitions=2))
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == (
        enabled,
        thresholds,
        frozen,
    )


def test_a_listen_seat_collects_between_jobs_never_during_one():
    """Two ``--listen`` seats serve two jobs back to back.  In each job the
    seat's collector is off and no generation collects; between the jobs
    one full collection runs; start-up froze the seat's heap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    seats = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.worker", "--listen", "127.0.0.1:0"],
            cwd=ROOT,  # the seats unpickle tests.runtime.gc_probe from here
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for _ in range(2)
    ]
    try:
        addresses = tuple(
            re.search(r"listening on (\S+)", wait_for_line(seat, "listening on")).group(1)
            for seat in seats
        )
        catalog, *_ = _register_pair(seed=67, size=200)
        options = ExecutionOptions(
            partitions=2, transport="sockets", placement=Placement(addresses)
        )
        jobs = []
        for _ in range(2):
            reports, _events, _blocks, backend, *_ = run_shard_job(
                "sockets", catalog, options, edit=probed
            )
            assert backend == "sockets"
            jobs.append([report.stats for report in reports])
            # A seat leaves its job right after the result frame; let it
            # get there before the next job enters, or the two would
            # overlap and share one collection at the end of the second.
            time.sleep(0.2)
        for job in jobs:
            for (enabled, counts, frozen), (enabled_after, counts_after, _) in job:
                assert not enabled and not enabled_after
                assert counts_after == counts
                assert frozen > 0
        for (_start, first_end), (second_start, _end) in zip(*jobs):
            assert second_start[1][2] >= first_end[1][2] + 1
        for seat in seats:
            seat.send_signal(signal.SIGTERM)
            wait_for_line(seat, "shut down cleanly")
            assert seat.wait(timeout=15.0) == 0
    finally:
        for seat in seats:
            seat.kill()
            seat.wait(timeout=5.0)
            seat.stdout.close()
