"""Kill-workers-mid-run failure injection for the recovering socket session.

The chaos tests drive one injector: a plan of ``(after_events, seat)``
pairs, executed against the live
:class:`~repro.recovery.driver.RecoveringSession` as the driver routes
elements.  When the routed-event count reaches ``after_events``,
the local worker process currently hosting ``seat`` is SIGKILLed — no
shutdown handler runs, the TCP connection drops, and the driver's next
send or the seat's result wait surfaces a
:class:`~repro.recovery.types.SeatFailure` the recovery machinery must
absorb.

Plans are deterministic data, so a hypothesis-seeded test can derive one
from a random seed and shrink on it.  :func:`random_kill_plan` is the
shared recipe: kill ``kills`` distinct seats (never all of them at once —
at least one seat stays alive so the run keeps making progress) at
strictly increasing event counts.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

from .checkpoint import checkpoint_elements

__all__ = ["ChaosInjector", "random_kill_plan"]


class ChaosInjector:
    """Execute a ``(after_events, seat)`` kill plan against a live run.

    The recovering session attaches itself (:meth:`attach`) before routing
    and calls :meth:`on_event` with the running event count after every
    routed event.  Kills whose seat currently has no local process (a
    remote placement seat, or a seat already torn down) are recorded as
    misses rather than errors, so a plan stays valid across placements.

    ``wait_for_checkpoint`` holds each due kill (up to ``wait_timeout``
    seconds) until the driver holds a checkpoint of the victim seat that
    covers at least that many elements (0: do not wait).  Without it, a
    kill landing while the worker is still behind on its first micro-batch
    legitimately recovers from zero — correct, but not the scenario a
    checkpointed-recovery test wants to exercise; and a victim can lag the
    router by most of its input, so one frame says little about how much
    of it a restore will skip.
    """

    def __init__(
        self,
        plan: Sequence[Tuple[int, int]],
        wait_for_checkpoint: int = 0,
        wait_timeout: float = 10.0,
    ) -> None:
        #: Pending kills, soonest first.
        self._plan: List[Tuple[int, int]] = sorted(plan)
        self._session = None
        self._wait_for_checkpoint = wait_for_checkpoint
        self._wait_timeout = wait_timeout
        #: ``(after_events, seat, signalled)`` for every executed entry.
        self.executed: List[Tuple[int, int, bool]] = []

    def attach(self, session) -> None:
        """Bind to the run's session (called by the recovering session)."""
        self._session = session

    def on_event(self, events_routed: int) -> None:
        """Fire every plan entry now due (called once per routed event)."""
        while self._plan and self._plan[0][0] <= events_routed:
            after_events, seat = self._plan.pop(0)
            signalled = False
            if self._session is not None:
                if self._wait_for_checkpoint:
                    self._await_checkpoint(seat)
                signalled = self._session.kill_seat(seat)
            self.executed.append((after_events, seat, signalled))

    def _await_checkpoint(self, seat: int) -> None:
        """Block (bounded) until ``seat``'s checkpoint covers enough."""
        deadline = time.monotonic() + self._wait_timeout
        while (
            checkpoint_elements(self._session.latest_checkpoint(seat))
            < self._wait_for_checkpoint
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)


def random_kill_plan(
    seed: int,
    seats: int,
    events_total: int,
    kills: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """A deterministic kill plan: ``kills`` seats die at random points.

    Victim seats are distinct and drawn from ``range(seats)``; at most
    ``seats - 1`` are killed so at least one seat is never touched.  Kill
    points are strictly increasing events counts within the run (never 0,
    so every seat has accepted input before the first death — the
    interesting regime for checkpoints).
    """
    if seats < 2:
        raise ValueError("a kill plan needs at least two seats")
    rng = random.Random(seed)
    if kills is None:
        kills = rng.randint(1, seats - 1)
    kills = max(1, min(kills, seats - 1))
    victims = rng.sample(range(seats), kills)
    span = max(2, events_total)
    points = sorted(rng.sample(range(1, span), min(kills, span - 1)))
    while len(points) < kills:  # tiny runs: reuse the last point + 1
        points.append(points[-1] + 1)
    return list(zip(points, victims))
