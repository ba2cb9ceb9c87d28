"""The cyclic-collector policy of the processes the runtime owns.

A socket seat (``python -m repro.runtime.worker --listen``, or a seat the
driver spawns) and a process-transport worker run nothing but jobs, so
they settle CPython's cyclic collector once per job instead of letting
allocation counts trigger it mid-run:

* once after start-up, :func:`own_collector` freezes (``gc.freeze()``)
  what is alive — the imported modules, collected first, or in a forked
  child the parent's heap — so no later collection traverses it again;
* while any job runs (:class:`CollectorPolicy` used as a context manager,
  counted across one seat's concurrent jobs) automatic collection is off:
  a job's state is freed by reference counting, and no generation-2 pause
  stalls the seat while its driver waits for credits;
* when the last running job ends — after its result has been sent, off
  the driver's critical path — one full collection reclaims any cycles
  the jobs left, and the collector is re-enabled as it was.

Library calls — a query run in the caller's process, ``serve_listener``
inside someone else's process — never touch the collector: only the entry
points above call :func:`own_collector`.
"""

from __future__ import annotations

import gc
import threading


class CollectorPolicy:
    """Automatic collection off while any job runs; one full collection
    when the last one ends.

    Enter it once per job; entries may nest and come from several threads.
    The outermost entry saves ``gc.isenabled()`` and disables the
    collector, the outermost exit collects once and restores it.  The
    generation thresholds are never touched.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._running = 0
        self._was_enabled = False

    def __enter__(self) -> "CollectorPolicy":
        with self._lock:
            if not self._running:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._running += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._running -= 1
            if not self._running:
                gc.collect()
                if self._was_enabled:
                    gc.enable()


def own_collector(forked: bool = False) -> CollectorPolicy:
    """Take over this process's collector: collect and freeze what start-up
    left alive, and return the policy its jobs run under.

    A ``forked`` child only freezes: what it inherited is its parent's
    garbage to collect, and traversing the parent's heap would copy every
    page of it into the child (about 0.4 s for a million objects).
    """
    if not forked:
        gc.collect()
    gc.freeze()
    return CollectorPolicy()
