"""Fault-tolerant distributed execution: checkpointed shard re-execution.

The socket transport makes worker *loss* an expected event.  This package
turns a dead seat from a run-killing error into a recovered one:

* :mod:`repro.recovery.checkpoint` — snapshot/restore of an
  output-collecting worker's state (open windows, reverse maintainer, collected outputs;
  probability memos are recomputed, not shipped) as primitives and the
  state's own pickled tuples;
* :mod:`repro.recovery.driver` — the recovering session the one router
  (:func:`repro.runtime.driver.run_job`) drives: detects a dead or
  timed-out seat, re-dispatches its self-contained spec to a
  fresh placement seat restored from the latest checkpoint, replays only
  the post-checkpoint element suffix, and splices the replacement's
  report in at-most-once — settled output stays tuple-for-tuple,
  bitwise-probability equal to an unfailed run;
* :mod:`repro.recovery.chaos` — the kill-workers-mid-run injector the
  chaos tests drive.

Only this ``__init__`` and :mod:`~repro.recovery.types` are imported
eagerly (the stream package re-exports :class:`RecoveryEvent` on its
results); the heavier modules load on first use.
"""

from .types import RecoveryEvent, SeatFailure

__all__ = ["RecoveryEvent", "SeatFailure"]
