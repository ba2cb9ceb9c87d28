"""Chaos tests: SIGKILL socket workers mid-run, demand bitwise-equal output.

The referee for every test is :func:`tests.recovery.conftest.settled_rows`:
the failure-injected run must settle tuple-for-tuple, bitwise-probability
identical to an unfailed run of the same query.  Small micro-batches keep
the driver's emitter flushing frequently, so kills are detected promptly
and checkpoints actually ship before the axe falls.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions
from repro.recovery import SeatFailure
from repro.recovery.chaos import ChaosInjector, random_kill_plan
from repro.stream import StreamQuery

from tests.recovery.conftest import query_catalog, settled_rows

SEED = 29
ON = (("Key", "Key"),)
#: Every way the driver may classify a SIGKILLed seat, depending on whether
#: the send, the result wait, or the connection itself surfaced the death.
CAUSES = ("connection_lost", "connection_failure", "timeout", "worker_error")
#: Events both streams contribute in total (two 90-tuple relations).
EVENTS_TOTAL = 180


def kills_signalled(chaos: ChaosInjector) -> int:
    """How many executed plan entries actually killed a process."""
    return sum(1 for _after, _seat, signalled in chaos.executed if signalled)


def _options(**overrides) -> ExecutionOptions:
    base = dict(
        transport="sockets",
        partitions=3,
        micro_batch_size=8,
        materialize_probabilities=True,
        restart_limit=3,
    )
    base.update(overrides)
    return ExecutionOptions(**base)


def _run(kind: str, options: ExecutionOptions, chaos=None):
    catalog, _left, _right = query_catalog(SEED)
    query = StreamQuery(catalog, kind, "l", "r", ON, config=options)
    return query.run(merge_seed=SEED, chaos=chaos)


_BASELINES: dict[str, list[str]] = {}


def _baseline_rows(kind: str) -> list[str]:
    """The unfailed settled output, computed once per kind (sockets,
    recovery disabled — the pre-recovery code path)."""
    if kind not in _BASELINES:
        result = _run(kind, _options(restart_limit=0))
        assert result.workers == "sockets"
        _BASELINES[kind] = settled_rows(result.relation)
    return _BASELINES[kind]


def test_unfailed_run_through_the_recovering_session_is_identical():
    """restart_limit > 0 routes through the recovering session even when
    nothing dies — the hot path must not change the settled output."""
    result = _run("left_outer", _options())
    assert result.workers == "sockets"
    assert result.recoveries() == []
    assert settled_rows(result.relation) == _baseline_rows("left_outer")


def test_from_zero_recovery_settles_bitwise_identical():
    chaos = ChaosInjector([(13, 0), (97, 1)])
    result = _run("left_outer", _options(), chaos=chaos)
    assert kills_signalled(chaos) == 2
    events = result.recoveries()
    assert len(events) == 2
    assert {event.seat for event in events} == {0, 1}
    for event in events:
        # No checkpointing configured: every recovery replays from zero.
        assert event.checkpoint_elements == 0
        assert event.elements_replayed > 0
        assert event.cause in CAUSES
        # Even locally spawned seats report the endpoint they lived at.
        assert event.address and ":" in event.address
    assert settled_rows(result.relation) == _baseline_rows("left_outer")
    # The recovery surfaces in the run report too.
    report = result.explain_analyze()
    assert "recoveries: 2" in report and "from-zero" in report


def test_a_recovered_run_reports_its_recovery_in_every_telemetry_view():
    """The recovering session's own counters and span join the workers'
    telemetry in the live collector and in the run result alike."""
    catalog, _left, _right = query_catalog(SEED)
    query = StreamQuery(
        catalog, "left_outer", "l", "r", ON, config=_options(metrics=True, trace=True)
    )
    result = query.run(merge_seed=SEED, chaos=ChaosInjector([(13, 0)]))
    assert len(result.recoveries()) == 1
    assert query.metrics().totals()["recoveries"] == 1
    assert result.metrics().totals()["recoveries"] == 1
    assert "recovery" in {span["name"] for span in result.trace().spans()}


def test_checkpointed_recovery_replays_only_the_suffix():
    """checkpoint_interval=0.0 snapshots at every micro-batch boundary, so
    a late kill restores a non-empty checkpoint and replays strictly less
    than the same kill does without checkpoints, which replays the shard's
    whole history.  full_outer exercises the mirrored reverse maintainer;
    the restored seat recomputes probabilities with a cold memo.  Seat 2 has
    been sent 92 elements when the kill is due and is sent 20 more after it;
    how many of those 20 are buffered by the time the driver notices the
    death differs from run to run, so the kill is held until the checkpoint
    covers twice that — then the comparison cannot turn on the noticing."""
    chaos = ChaosInjector([(150, 2)], wait_for_checkpoint=40)
    result = _run("full_outer", _options(checkpoint_interval=0.0), chaos=chaos)
    assert kills_signalled(chaos) == 1
    (event,) = result.recoveries()
    assert event.seat == 2
    assert event.checkpoint_elements >= 40
    assert event.elements_replayed > 0
    assert settled_rows(result.relation) == _baseline_rows("full_outer")
    assert f"checkpoint@{event.checkpoint_elements}" in result.explain_analyze()

    chaos = ChaosInjector([(150, 2)])
    from_zero = _run("full_outer", _options(checkpoint_interval=None), chaos=chaos)
    assert kills_signalled(chaos) == 1
    (zero_event,) = from_zero.recoveries()
    assert zero_event.checkpoint_elements == 0
    assert event.elements_replayed < zero_event.elements_replayed
    assert settled_rows(from_zero.relation) == _baseline_rows("full_outer")


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_kill_plans_settle_bitwise_identical(seed: int):
    """Hypothesis-seeded chaos: kill 1..K-1 of the K=3 seats at random
    points; the settled output never changes."""
    plan = random_kill_plan(seed, seats=3, events_total=EVENTS_TOTAL)
    chaos = ChaosInjector(plan)
    result = _run("left_outer", _options(checkpoint_interval=0.0), chaos=chaos)
    assert kills_signalled(chaos) == len(plan)
    assert len(result.recoveries()) == len(plan)
    assert settled_rows(result.relation) == _baseline_rows("left_outer")


def test_restart_limit_exhaustion_raises_the_seat_failure():
    """Killing the same logical seat more times than restart_limit allows
    surfaces the SeatFailure itself — with the seat and its placement
    address — instead of recovering silently forever.  Driven through the
    session directly (micro_batch_size=1: one frame per element) so each
    kill is detected at a controlled point."""
    from repro.recovery.driver import RecoveringSession
    from repro.runtime import SOURCE_CHANNEL, RuntimeJob
    from repro.stream.elements import Watermark
    from repro.stream.source import merge_tagged
    from tests.conftest import shard_specs

    catalog, _left, _right = query_catalog(SEED)
    left_def = catalog.lookup_stream("l")
    right_def = catalog.lookup_stream("r")
    elements = list(merge_tagged(left_def.replay(), right_def.replay(), seed=SEED))
    _graph, (spec,), _stages = shard_specs(catalog)
    options = ExecutionOptions(
        transport="sockets", partitions=1, micro_batch_size=1, restart_limit=1
    )
    session = RecoveringSession(RuntimeJob((spec,), micro_batch_size=1), options)

    def route(tagged) -> None:
        watermark = isinstance(tagged.element, Watermark)
        session.send(0, SOURCE_CHANNEL if watermark else None, tagged)

    with session:
        iterator = iter(elements)
        for _ in range(10):
            route(next(iterator))
        assert session.kill_seat(0)
        # One frame per element: the broken connection surfaces within a
        # couple of sends and the (single allowed) recovery runs inline.
        # The pacing sleep lets the driver's reader thread observe the
        # seat's FIN — without it, all remaining frames can be sent before
        # the reader ever wakes up.
        for tagged in iterator:
            route(tagged)
            if session.recoveries:
                break
            time.sleep(0.002)
        assert len(session.recoveries) == 1, "first kill was never recovered"
        # Kill the replacement seat.  (No assert: if the replacement
        # already died on its own the exhaustion below triggers anyway.)
        session.kill_seat(0)
        with pytest.raises(SeatFailure) as excinfo:
            for tagged in iterator:
                route(tagged)
            for _ in range(spec.producers):
                session.done(0)
            session.finish()
        failure = excinfo.value
        assert failure.seat == 0
        assert failure.address and ":" in failure.address
        assert failure.cause in CAUSES


# --------------------------------------------------------------------------- #
# injector / plan unit tests (no sockets)
# --------------------------------------------------------------------------- #
def test_random_kill_plan_is_deterministic_and_bounded():
    plan = random_kill_plan(7, seats=4, events_total=500)
    assert plan == random_kill_plan(7, seats=4, events_total=500)
    points = [after for after, _seat in plan]
    victims = [seat for _after, seat in plan]
    assert points == sorted(points) and len(set(points)) == len(points)
    assert len(set(victims)) == len(victims)
    assert 1 <= len(plan) <= 3  # at least one of the 4 seats survives
    assert all(0 < after < 500 for after in points)
    assert all(0 <= seat < 4 for seat in victims)


def test_random_kill_plan_rejects_single_seat():
    with pytest.raises(ValueError):
        random_kill_plan(1, seats=1, events_total=100)


def test_injector_records_misses_without_a_session():
    chaos = ChaosInjector([(5, 0)])
    chaos.on_event(4)
    assert chaos.executed == []
    chaos.on_event(5)
    assert chaos.executed == [(5, 0, False)]
    assert kills_signalled(chaos) == 0
