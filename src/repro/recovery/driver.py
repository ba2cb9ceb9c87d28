"""The recovering session: socket shards that survive seat loss.

A :class:`RecoveringSession` is a
:class:`~repro.runtime.transport.TransportSession`, so the one router loop
(:func:`repro.runtime.driver.run_job`) drives it like any other backend; it
picks this session for socket runs of self-contained specs under
:attr:`repro.options.ExecutionOptions.recovery_enabled`.  On top of a plain
:class:`~repro.runtime.sockets.SocketSession` it adds:

* every element is appended to a per-seat **replay buffer** at send time,
  so the driver can re-send any seat's input suffix verbatim;
* a :class:`~repro.recovery.types.SeatFailure` (send broke, connection
  EOF without a result, result-frame timeout, marshalled worker error)
  triggers **re-execution**: the failed shard's picklable spec is
  dispatched to a fresh seat — a spare placement address when the
  :class:`~repro.runtime.placement.Placement` has one left, a fresh local
  spawn otherwise — as a single-spec :class:`~repro.runtime.sockets.
  SocketSession`, restored from the seat's **latest checkpoint** frame,
  and only the post-checkpoint buffer suffix is replayed;
* the dead seat's result is abandoned and the replacement's report is
  spliced in by seat index — **at-most-once**, because the checkpoint
  carries the restored outputs and replayed elements re-derive exactly
  the windows the checkpoint had not yet finalized.  Settled output stays
  tuple-for-tuple, bitwise-probability equal to an unfailed run.

Collecting partitions are shared-nothing (no worker→worker edges), which
is what makes single-seat re-execution sound; graphs with peer edges or
revision-publishing nodes never get this session
(:func:`repro.runtime.driver.recovery_blocker`).

Each recovery increments the driver-side ``recovery`` metrics registry
and records one ``recovery`` span; the router merges both into the run's
collectors alongside the worker telemetry.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import replace
from typing import Hashable, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..runtime import RuntimeJob, TransportSession, WorkerReport
from ..runtime.placement import Placement
from ..runtime.sockets import SocketSession
from ..stream.elements import Tagged
from .checkpoint import checkpoint_elements
from .types import RecoveryEvent, SeatFailure

_LOGGER = logging.getLogger(__name__)

__all__ = ["RecoveringSession"]


class RecoveringSession(TransportSession):
    """Per-seat send/recover state of one recovering socket run.

    Seats start on one multi-spec :class:`SocketSession`; each recovery
    moves a seat onto its own single-spec replacement session.  Tracked
    per seat: the session currently owning it, the replay buffer, how many
    done sentinels were sent, and how many re-executions it has consumed
    against ``options.restart_limit``.

    ``chaos`` is the failure-injection hook (see
    :class:`repro.recovery.chaos.ChaosInjector`): attached at start-up,
    notified with the running count after every routed event, and free to
    kill seats through :meth:`kill_seat`.
    """

    name = "sockets"

    def __init__(self, job: RuntimeJob, options, chaos=None) -> None:
        self._options = options
        self._job = job
        count = len(job.specs)
        session = SocketSession(job, options.placement)
        #: Every session ever started, newest last — released together.
        self.sessions: List[SocketSession] = [session]
        self._seat_session: List[SocketSession] = [session] * count
        self._seat_target: List[int] = list(range(count))
        self._buffers: List[List[tuple]] = [[] for _ in range(count)]
        self._dones_sent = [0] * count
        self._attempts = [0] * count
        # Spare placement addresses (indices beyond the spec count) are
        # consumed left to right by successive recoveries.
        self._spare_cursor = count
        self._recoveries: List[RecoveryEvent] = []
        #: Driver-side recovery telemetry, merged into the run's metrics.
        self.registry = MetricsRegistry(worker="driver", component="recovery")
        self.tracer = Tracer("recovery")
        self._chaos = chaos
        self._events_routed = 0
        if chaos is not None:
            chaos.attach(self)

    # ------------------------------------------------------------------ #
    # the session contract
    # ------------------------------------------------------------------ #
    @property
    def recoveries(self) -> List[RecoveryEvent]:
        return self._recoveries

    def send(self, target: int, channel: Hashable, tagged: Tagged) -> None:
        """Buffer one element for replay and deliver it (recovering on
        failure)."""
        self._buffers[target].append((channel, tagged))
        try:
            self._seat_session[target].send(self._seat_target[target], channel, tagged)
        except SeatFailure as failure:
            self._recover(target, failure)
        if self._chaos is not None and channel is None:
            self._events_routed += 1
            self._chaos.on_event(self._events_routed)

    def done(self, target: int) -> None:
        """Send one of a seat's done sentinels (recovering on failure)."""
        self._dones_sent[target] += 1
        try:
            self._seat_session[target].done(self._seat_target[target])
        except SeatFailure as failure:
            self._recover(target, failure)

    def finish(self) -> List[WorkerReport]:
        """Every seat's settled report, each seat re-executed as often as
        ``restart_limit`` allows."""
        return [self._finish_seat(seat) for seat in range(len(self._job.specs))]

    def _finish_seat(self, seat: int) -> WorkerReport:
        while True:
            try:
                return self._seat_session[seat].finish_seat(self._seat_target[seat])
            except SeatFailure as failure:
                self._recover(seat, failure)

    # ------------------------------------------------------------------ #
    # chaos seam
    # ------------------------------------------------------------------ #
    def latest_checkpoint(self, seat: int):
        """The last checkpoint payload the driver holds for ``seat``
        (``None`` when the seat never checkpointed or checkpointing is
        off).  A kill landing before this is non-``None`` recovers from
        zero — see ``ChaosInjector(wait_for_checkpoint=...)``."""
        return self._seat_session[seat].latest_checkpoint(self._seat_target[seat])

    def kill_seat(self, seat: int, signum: int = signal.SIGKILL) -> bool:
        """SIGKILL the local process currently hosting ``seat`` (chaos).

        Returns whether a process was actually signalled — remote
        placement seats have no local process to kill.
        """
        session = self._seat_session[seat]
        process = session.seat_processes.get(self._seat_target[seat])
        if process is None or process.pid is None or not process.is_alive():
            return False
        os.kill(process.pid, signum)
        return True

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _recover(self, seat: int, failure: SeatFailure) -> None:
        """Re-execute one failed seat until it accepts its input suffix.

        Each attempt (including a replacement that itself dies mid-replay)
        counts against ``restart_limit``; exhausting it re-raises the
        last :class:`SeatFailure` with every earlier cause in its chain.
        """
        spec = self._job.specs[seat]
        while True:
            self._attempts[seat] += 1
            self.registry.counter("seat_failures").inc()
            if self._attempts[seat] > self._options.restart_limit:
                raise failure
            started = time.perf_counter()
            failed_session = self._seat_session[seat]
            checkpoint = failed_session.latest_checkpoint(self._seat_target[seat])
            skip = checkpoint_elements(checkpoint)
            suffix = self._buffers[seat][skip:]
            _LOGGER.warning(
                "seat %d (%s) %s: re-executing from %s, replaying %d element(s)",
                seat,
                failure.address or "local-spawn",
                failure.cause,
                f"checkpoint@{skip}" if skip else "zero",
                len(suffix),
            )
            session = self._start_replacement(spec, checkpoint)
            self._seat_session[seat] = session
            self._seat_target[seat] = 0
            try:
                for channel, tagged in suffix:
                    session.send(0, channel, tagged)
                for _ in range(self._dones_sent[seat]):
                    session.done(0)
            except SeatFailure as next_failure:
                # The replacement died during replay: loop with its own
                # latest checkpoint (it may have checkpointed mid-replay).
                next_failure.__cause__ = failure
                failure = next_failure
                continue
            elapsed = time.perf_counter() - started
            event = RecoveryEvent(
                seat=seat,
                cause=failure.cause,
                address=failure.address,
                checkpoint_elements=skip,
                elements_replayed=len(suffix),
                recovery_seconds=elapsed,
            )
            self._recoveries.append(event)
            self.registry.counter("recoveries").inc()
            self.registry.counter("elements_replayed").inc(len(suffix))
            self.registry.gauge("last_checkpoint_elements").set(skip)
            self.tracer.record(
                "recovery",
                0,
                None,
                started,
                started + elapsed,
                seat=seat,
                cause=failure.cause,
                checkpoint_elements=skip,
                elements_replayed=len(suffix),
            )
            _LOGGER.info("recovered: %s", event.describe())
            return

    def _start_replacement(self, spec, checkpoint) -> SocketSession:
        """One fresh single-spec session for a re-executed shard."""
        address: Optional[str] = None
        placement = self._options.placement
        if placement is not None:
            while self._spare_cursor < len(placement.addresses):
                candidate = placement.addresses[self._spare_cursor]
                self._spare_cursor += 1
                if candidate:
                    address = candidate
                    break
        sub_job = replace(self._job, specs=(spec,))
        sub_placement = Placement((address,)) if address is not None else None
        restores = {0: checkpoint} if checkpoint is not None else None
        try:
            session = SocketSession(sub_job, sub_placement, restores=restores)
        except Exception as error:
            # Mid-run there is no safe transport fallback (the source edges
            # are partially consumed), so a replacement that cannot start
            # is fatal — never a WorkerStartError the router would degrade
            # on.
            raise RuntimeError(
                f"cannot start replacement seat for shard {spec.index}: {error}"
            ) from error
        self.sessions.append(session)
        return session

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def metrics(self) -> List[dict]:
        """Live per-worker snapshots across every session (collector API)."""
        snapshots: List[dict] = []
        for session in self.sessions:
            snapshots.extend(session.metrics())
        return snapshots

    def trace_spans(self) -> List[dict]:
        """Live spans across every session (collector API)."""
        spans: List[dict] = []
        for session in self.sessions:
            spans.extend(session.trace_spans())
        return spans

    @property
    def backpressure_blocks(self) -> int:
        return sum(session.backpressure_blocks for session in self.sessions)

    def _cleanup(self, failed: bool) -> None:
        for session in self.sessions:
            session.release()
