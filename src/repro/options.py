"""The unified execution-knob surface: one frozen :class:`ExecutionOptions`.

Every knob a continuous run composes from — transport, placement,
partitions, batching, telemetry and the recovery knobs
(``checkpoint_interval``, ``restart_limit``, ``seat_timeout``) — lives on
this one object, accepted uniformly by :class:`repro.Engine`,
:class:`repro.stream.StreamQuery`, :class:`repro.dataflow.DataflowQuery`
and ``python -m repro.serve``.  :func:`repro.runtime.driver.run_job` is the
one place a run's :class:`~repro.runtime.RuntimeJob` is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .obs.metrics import DEFAULT_METRICS_INTERVAL
from .obs.trace import DEFAULT_TRACE_SAMPLE_RATE
from .runtime.placement import Placement
from .runtime.transport import TRANSPORTS

__all__ = ["ExecutionOptions"]


def is_count(value: object) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``: what a count knob takes."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob of a continuous/dataflow run, in one place.

    ``transport`` picks where the workers of a multi-worker run live:
    ``"threads"`` shares one interpreter (cheap, GIL-capped),
    ``"processes"`` runs one OS process per partition (true multi-core
    speedup), ``"sockets"`` puts each partition behind a TCP endpoint —
    locally spawned by default, or on the hosts ``placement`` names (start
    them with ``python -m repro.runtime.worker --listen HOST:PORT``).
    Process and socket transports degrade to threads with a warning when
    workers cannot start.  A run of one worker executes inline unless its
    caller names a backend (:func:`repro.runtime.driver.default_transport`,
    the one rule every query and the serving layer apply).

    ``materialize_probabilities`` computes output probabilities inline
    with the maintainer-owned computers, one per maintainer, instead of
    leaving them for a later ``with_probabilities`` pass.

    ``partitions`` is the degree of a :class:`~repro.stream.StreamQuery`
    and of every node with an equi-θ the planner builds for a SQL stream
    join; a node without one runs one worker, since it has no key to
    route by.  A hand-built :class:`~repro.dataflow.DataflowQuery` takes
    each node's degree from its ``NodeSpec.partitions`` instead.

    ``micro_batch_size`` is how many elements a worker drains per step and
    one message or frame carries, and it sizes every queue by one rule: a
    worker inbox holds one micro-batch.  That is the in-process channel on
    threads and the seat's inbox on sockets (a batch is taken whole, so
    either can overshoot by less than one micro-batch), and two messages on
    a process queue.  On sockets the driver also keeps at most four
    micro-batches uncredited per seat, so a driver→seat edge holds at most
    five micro-batches; worker→worker socket edges are bounded by TCP flow
    control alone.  Inline runs buffer nothing.  A deeper thread inbox would
    not drain any faster — its consumer shares the GIL with the producer —
    so it would only let the producer run ahead while every queued element
    waits.  A producer parks on a full inbox until its consumer takes a
    batch; ``backpressure_blocks`` counts those parks, which are the flow
    control at work, not faults.  (``buffer_capacity`` is a read-only
    property kept for readers of the old field; it equals
    ``micro_batch_size``.)

    ``early_emit`` publishes provisional windows before the watermark
    closes them, retracting/refining on later data (honoured by the one
    dataflow executor every query runs on).  Each changed group is
    published once per micro-batch, at its end; inline runs end a batch
    after every element.  Only nodes something reads publish
    provisionally — one feeding another node, a serve tap or
    ``iter_revisions``.  A sink nothing reads stamps when each group first
    had windows (its emit latencies, event lags and
    ``groups_published_early`` keep their early meaning) and derives each
    group once, when it closes, so its emit/refine/retract counters read
    as a watermark-only node's.

    ``metrics`` / ``metrics_interval`` sample every worker's always-on
    counts and operator state into per-worker registries and ship them
    (:mod:`repro.obs`); ``trace`` / ``trace_sample_rate`` record
    span-per-element timelines.  Both are off by default.

    Fault tolerance (sockets transport only):

    * ``restart_limit`` — how many dead/timed-out seats one run may
      recover by re-dispatching the worker spec to a fresh seat and
      replaying that seat's elements.  ``0`` (default) disables
      recovery: a dead seat fails the run.  Only runs whose workers are
      fed by sources and read by nothing, with early emission off (a
      stream query, a one-node graph), recover; any other runs
      unrecovered with a warning.
    * ``checkpoint_interval`` — seconds between worker state snapshots
      (open windows, counters, settled tuples) shipped to the driver
      as checkpoint frames; recovery then replays only the
      post-checkpoint suffix instead of the shard's whole history.
      ``0.0`` checkpoints at every micro-batch boundary (deterministic,
      for tests); ``None`` (default) disables checkpointing, making any
      recovery a replay-from-zero.
    * ``seat_timeout`` — seconds the driver waits for a socket seat's
      result frame before declaring it dead (``None``: wait forever,
      trusting the OS to surface connection loss).
    """

    transport: str = "threads"
    partitions: int = 1
    micro_batch_size: int = 64
    materialize_probabilities: bool = False
    early_emit: bool = False
    placement: Optional[Placement] = None
    metrics: bool = False
    metrics_interval: float = DEFAULT_METRICS_INTERVAL
    trace: bool = False
    trace_sample_rate: float = DEFAULT_TRACE_SAMPLE_RATE
    checkpoint_interval: Optional[float] = None
    restart_limit: int = 0
    seat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("partitions", "micro_batch_size", "restart_limit"):
            value = getattr(self, name)
            if not is_count(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.micro_batch_size <= 0:
            raise ValueError("micro_batch_size must be positive")
        if not self.metrics_interval > 0:
            raise ValueError(
                f"metrics_interval must be positive seconds, got {self.metrics_interval!r}"
            )
        # One-worker runs execute inline regardless (default_transport), so
        # ``inline`` is not a value this knob takes.
        if self.transport not in TRANSPORTS[1:]:
            raise ValueError(
                f"transport must be one of {TRANSPORTS[1:]}, got {self.transport!r}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0 seconds or None, "
                f"got {self.checkpoint_interval}"
            )
        if self.restart_limit < 0:
            raise ValueError(f"restart_limit must be >= 0, got {self.restart_limit}")
        if self.seat_timeout is not None and self.seat_timeout <= 0:
            raise ValueError(
                f"seat_timeout must be positive seconds or None, "
                f"got {self.seat_timeout}"
            )

    @property
    def buffer_capacity(self) -> int:
        """Elements a thread or socket-seat inbox holds: one micro-batch.

        Read-only; the queue depth is not a knob of its own.
        """
        return self.micro_batch_size

    @property
    def recovery_enabled(self) -> bool:
        """Whether a run under these options recovers dead seats at all."""
        return self.restart_limit > 0 and self.transport == "sockets"

