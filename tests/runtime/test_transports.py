"""The runtime transports: registry, socket backend, placement, fallback.

The in-process transports (inline/threads/processes) are exercised
continuously by the stream/parallel/dataflow suites that now run on them;
this module covers the transport seam itself and the parts only the socket
backend adds — TCP framing, driver-spawned workers, external placement via
the ``python -m repro.runtime.worker`` entry point, and the loud fallback.
"""

from __future__ import annotations

import gc
import os
import socket
import subprocess
import sys
import warnings

import pytest

from repro import ExecutionOptions
from repro.core import tp_anti_join, tp_left_outer_join
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.runtime import Placement, WorkerStartError, get_transport, parse_placement
from repro.stream import StreamQuery
from tests.conftest import canonical_rows, make_random_relations


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


# --------------------------------------------------------------------------- #
# registry / placement parsing
# --------------------------------------------------------------------------- #
def test_unknown_transport_rejected():
    with pytest.raises(ValueError, match="unknown transport"):
        get_transport("fibers")


def test_every_registered_transport_resolves():
    for name in ("inline", "threads", "processes", "sockets"):
        assert get_transport(name).name == name


def test_parse_placement_mixes_remote_and_local():
    placement = parse_placement("host1:9101,local,host2:9102")
    assert placement.address_of(0) == "host1:9101"
    assert placement.address_of(1) is None
    assert placement.address_of(2) == "host2:9102"
    assert placement.address_of(99) is None  # beyond the map → local
    assert placement.describe() == "host1:9101,local,host2:9102"


def test_parse_placement_rejects_portless_entries():
    with pytest.raises(ValueError, match="HOST:PORT"):
        parse_placement("nonsense")


# --------------------------------------------------------------------------- #
# socket transport: local spawns
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind,batch_join", [("anti", tp_anti_join), ("left_outer", tp_left_outer_join)])
def test_stream_query_socket_backend_matches_batch(kind, batch_join):
    catalog, left, right, theta = _register_pair(seed=41)
    query = StreamQuery(
        catalog,
        kind,
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="sockets", micro_batch_size=8),
    )
    result = query.run(merge_seed=41)
    assert result.workers == "sockets"
    assert result.events_processed == len(left) + len(right)
    batch = batch_join(left, right, theta, compute_probabilities=False)
    assert canonical_rows(result.relation, with_probability=False) == canonical_rows(
        batch, with_probability=False
    )


def test_socket_run_leaves_no_unclosed_socket():
    """The driver closes what it opened per connection — the ``makefile``
    readers too — so collecting the run's garbage warns about nothing."""
    catalog, *_ = _register_pair(seed=53)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="sockets"),
    )
    gc.collect()  # earlier tests' garbage is not this run's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = query.run(merge_seed=53)
        gc.collect()
    assert result.workers == "sockets"
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_socket_worker_failure_is_reported_to_the_driver():
    from dataclasses import replace

    from tests.conftest import run_shard_job

    catalog, *_ = _register_pair(seed=43)
    # An invalid join kind makes every worker fail while building its join.
    with pytest.raises(RuntimeError, match="failed"):
        run_shard_job(
            "sockets", catalog, edit=lambda spec: replace(spec, kind="no_such_kind")
        )


def test_socket_fallback_to_threads_warns():
    """An unreachable placement degrades to threads, loudly."""
    catalog, left, _right, theta = _register_pair(seed=47)
    # Nothing listens on this port: connection fails before any element is
    # consumed, so the fallback runs over the untouched replays.
    dead = Placement(("127.0.0.1:9", "127.0.0.1:9"))
    query = StreamQuery(
        catalog,
        "anti",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, transport="sockets", placement=dead),
    )
    with pytest.warns(RuntimeWarning, match="falling back to the thread transport"):
        result = query.run(merge_seed=47)
    assert result.workers == "threads"
    assert result.events_processed > 0


def test_dataflow_socket_fallback_records_effective_backend(monkeypatch):
    from repro.dataflow import DataflowQuery, NodeSpec, assert_converged
    from repro.runtime.sockets import SocketTransport
    from tests.dataflow.conftest import make_stream_catalog

    def refuse_start(self, job, placement=None):
        raise WorkerStartError("cannot start socket workers: denied")

    monkeypatch.setattr(SocketTransport, "start", refuse_start)
    catalog, *_ = make_stream_catalog(5, sizes=(12, 12, 10), disorder=4)
    tree = [
        NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
        NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
    ]
    query = DataflowQuery(catalog, tree, ExecutionOptions(early_emit=True, transport="sockets"))
    with pytest.warns(RuntimeWarning, match="falling back to the thread transport"):
        result = query.run(merge_seed=5)
    assert result.backend == "threads"  # the transport that actually ran
    assert_converged(result, catalog, tree)


# --------------------------------------------------------------------------- #
# external placement via the worker entry point
# --------------------------------------------------------------------------- #
def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_placement_runs_on_external_entrypoint_workers():
    """Two `python -m repro.runtime.worker --listen` processes serve a query."""
    ports = [_free_port(), _free_port()]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.worker", "--listen", f"127.0.0.1:{port}"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for port in ports
    ]
    try:
        for worker in workers:
            banner = worker.stdout.readline()
            assert "listening on" in banner
        catalog, left, right, theta = _register_pair(seed=53, size=25)
        placement = Placement(tuple(f"127.0.0.1:{port}" for port in ports))
        query = StreamQuery(
            catalog,
            "left_outer",
            "l",
            "r",
            [("Key", "Key")],
            config=ExecutionOptions(
                partitions=2, transport="sockets", placement=placement
            ),
        )
        batch = tp_left_outer_join(left, right, theta, compute_probabilities=False)
        want = canonical_rows(batch, with_probability=False)
        # Long-lived placement workers serve consecutive jobs.
        for merge_seed in (53, 54):
            result = query.run(merge_seed=merge_seed)
            assert result.workers == "sockets"
            assert canonical_rows(result.relation, with_probability=False) == want
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.wait(timeout=10)
            worker.stdout.close()
