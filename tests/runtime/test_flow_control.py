"""Credit-based flow control on socket edges, and the seat lifecycle around it.

The driver keeps at most ``4 × micro_batch_size`` uncredited elements per
seat; a seat credits a frame once its bounded inbox has taken all of it.
These tests slow the seats down (every seat is forked from the test process,
so a patched operator reaches them) and check what that bound implies: the
driver parks and says so, in-flight elements stay bounded, a seat killed
while the driver is parked on it fails or recovers instead of hanging, and a
slow seat is never mistaken for a dead one.  The last test pins the
wake-driven accept loop: a one-job seat exits as soon as it has served.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro import ExecutionOptions
from repro.core import tp_join
from repro.obs import MetricsCollector
from repro.recovery import SeatFailure
from repro.runtime import SOURCE_CHANNEL, Placement, RuntimeJob, sockets
from repro.runtime.sockets import SocketSession, serve_listener
from repro.stream import StreamQuery
from repro.stream.elements import Watermark
from repro.stream.operators import ContinuousJoin
from repro.stream.source import merge_tagged
from tests.conftest import make_random_relations, run_shard_job, shard_specs
from tests.recovery.conftest import query_catalog, settled_rows

SEED = 31
ON = (("Key", "Key"),)
#: What the slowed runs use: a window of 16 elements over an 8-element inbox.
SMALL = dict(buffer_capacity=8, micro_batch_size=4)


def slow_seats(monkeypatch, seconds: float) -> None:
    """Every seat forked from here on sleeps ``seconds`` per operator step."""
    process = ContinuousJoin.process

    def slowed(self, tagged):
        time.sleep(seconds)
        return process(self, tagged)

    monkeypatch.setattr(ContinuousJoin, "process", slowed)


def batch_rows(size: int) -> list[str]:
    """The batch join of the ``query_catalog(SEED, size, size)`` inputs."""
    left, right, theta = make_random_relations(
        SEED, left_size=size, right_size=size, num_keys=5
    )
    return settled_rows(tp_join("left_outer", left, right, theta))


def stream_query(catalog, **options) -> StreamQuery:
    config = ExecutionOptions(
        transport="sockets", materialize_probabilities=True, **options
    )
    return StreamQuery(catalog, "left_outer", "l", "r", ON, config=config)


def kill_once_parked(session, kill) -> threading.Thread:
    """Run ``kill()`` as soon as ``session`` has parked a send for credit."""

    def watch() -> None:
        deadline = time.monotonic() + 30.0
        while session.backpressure_blocks == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        kill()

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    return thread


class SessionProbe(MetricsCollector):
    """A collector that keeps the session the router attached it to."""

    def attach(self, session) -> None:
        super().attach(session)
        if session is not None:
            self.session = session


# --------------------------------------------------------------------------- #
# credits
# --------------------------------------------------------------------------- #
def test_a_slowed_seat_reports_the_sends_it_parked(monkeypatch):
    slow_seats(monkeypatch, 0.005)
    catalog, _left, _right = query_catalog(SEED, left_size=40, right_size=40)
    result = stream_query(catalog, partitions=2, **SMALL).run(merge_seed=SEED)
    assert result.workers == "sockets"
    assert result.backpressure_blocks > 0
    assert f"backpressure_blocks={result.backpressure_blocks}" in result.explain_analyze()
    assert settled_rows(result.relation) == batch_rows(40)


def test_credits_bound_the_elements_in_flight_per_seat(monkeypatch):
    """Host-independent: however the threads interleave, the driver never
    holds more than the window uncredited on a seat, and a seat's inbox
    never holds more than its capacity plus the one frame it took whole.
    More seats than cores and a tiny switch interval shake the interleaving;
    a lost credit update would leave a seat's count off zero at the end."""
    slow_seats(monkeypatch, 0.005)
    catalog, _left, _right = query_catalog(SEED, left_size=40, right_size=40)
    probe = SessionProbe()
    options = ExecutionOptions(metrics=True, **SMALL)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports, *_ = run_shard_job(
            "sockets", catalog, options, partitions=3, collector=probe
        )
    finally:
        sys.setswitchinterval(interval)
    window = sockets._CREDIT_BATCHES * SMALL["micro_batch_size"]
    assert 0 < max(probe.session.outstanding_high_watermark) <= window
    assert probe.session._outstanding == [0, 0, 0]
    for report in reports:
        inbox = report.metrics["gauges"]["inbox_high_watermark"]
        assert 0 < inbox <= SMALL["buffer_capacity"] + SMALL["micro_batch_size"]


def test_a_park_outlasting_the_seat_timeout_fails_the_seat(monkeypatch):
    """``seat_timeout`` is the one deadline on a live seat, parks included."""
    slow_seats(monkeypatch, 0.05)
    catalog, _left, _right = query_catalog(SEED, left_size=40, right_size=40)
    query = stream_query(catalog, partitions=2, seat_timeout=0.02, **SMALL)
    with pytest.raises(SeatFailure) as excinfo:
        query.run(merge_seed=SEED)
    assert excinfo.value.cause == "timeout"
    assert "took no input" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# a seat killed while the driver is parked on its credit
# --------------------------------------------------------------------------- #
class _KillParkedSeat:
    """Chaos hook: SIGKILL seat 0 once the driver has parked on its credit."""

    def attach(self, session) -> None:
        self.watcher = kill_once_parked(session, lambda: session.kill_seat(0))

    def on_event(self, events_routed: int) -> None:
        pass


def test_a_seat_killed_while_parked_on_recovers_to_the_batch_join(monkeypatch):
    slow_seats(monkeypatch, 0.01)
    catalog, _left, _right = query_catalog(SEED, left_size=30, right_size=30)
    chaos = _KillParkedSeat()
    query = stream_query(catalog, partitions=1, restart_limit=1, **SMALL)
    result = query.run(merge_seed=SEED, backend="sockets", chaos=chaos)
    chaos.watcher.join(timeout=5.0)
    assert not chaos.watcher.is_alive()
    assert result.workers == "sockets"
    assert len(result.recoveries()) == 1
    assert settled_rows(result.relation) == batch_rows(30)


def test_a_seat_killed_while_parked_on_fails_instead_of_hanging(monkeypatch):
    # A park lasts until the seat takes its next batch (up to 4 × 50 ms), so
    # the kill, a millisecond after the first park, lands inside it.
    slow_seats(monkeypatch, 0.05)
    catalog, _left, _right = query_catalog(SEED, left_size=30, right_size=30)
    elements = list(
        merge_tagged(
            catalog.lookup_stream("l").replay(),
            catalog.lookup_stream("r").replay(),
            seed=SEED,
        )
    )
    _graph, (spec,), _stages = shard_specs(catalog)
    session = SocketSession(RuntimeJob((spec,), **SMALL))
    process = session.seat_processes[0]
    watcher = kill_once_parked(session, lambda: os.kill(process.pid, signal.SIGKILL))
    raised: list = []

    def drive() -> None:
        try:
            for tagged in elements:
                watermark = isinstance(tagged.element, Watermark)
                session.send(0, SOURCE_CHANNEL if watermark else None, tagged)
            for _ in range(spec.producers):
                session.done(0)
            session.finish()
        except SeatFailure as failure:
            raised.append(failure)

    with session:
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=30.0)
        assert not driver.is_alive(), "the driver hung on a dead seat's credit"
    watcher.join(timeout=5.0)
    (failure,) = raised
    assert failure.seat == 0
    assert failure.cause in ("connection_lost", "connection_failure")


# --------------------------------------------------------------------------- #
# seat lifecycle
# --------------------------------------------------------------------------- #
def test_a_slow_seat_outlives_the_connect_timeout(monkeypatch):
    """The connect deadline must not stay on the socket: a seat that is busy
    for longer than it, with every credit already back, is not dead."""
    monkeypatch.setattr(sockets, "_SPAWN_WAIT_SECONDS", 0.5)
    slow_seats(monkeypatch, 0.02)
    catalog, _left, _right = query_catalog(SEED, left_size=60, right_size=60)
    started = time.monotonic()
    result = stream_query(catalog, partitions=2).run(merge_seed=SEED)
    assert time.monotonic() - started > 1.0
    assert result.workers == "sockets"
    assert settled_rows(result.relation) == batch_rows(60)


def test_a_once_seat_returns_as_soon_as_it_has_served():
    """No accept poll: the seat's loop wakes when its job's handler ends.
    (A 0.5 s poll passes five rounds of this with probability 0.2**5.)"""
    catalog, _left, _right = query_catalog(SEED, left_size=20, right_size=20)
    for _ in range(5):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        placement = Placement((f"127.0.0.1:{listener.getsockname()[1]}",))
        seat = threading.Thread(
            target=serve_listener, args=(listener,), kwargs={"once": True}, daemon=True
        )
        seat.start()
        options = ExecutionOptions(placement=placement)
        run_shard_job("sockets", catalog, options, partitions=1)
        served = time.monotonic()
        seat.join(timeout=5.0)
        assert not seat.is_alive()
        assert time.monotonic() - served < 0.1
