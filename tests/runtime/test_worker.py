"""The one worker loop (``repro.runtime.worker``).

Counting is always on and tracing rides the same ``accept``/``_dispatch``
as everything else, so three things must hold: a traced worker sends
exactly what an untraced one sends, the always-on counts are the numbers a
metrics registry would have reported, and no combination of the telemetry
and checkpoint switches changes what a run settles to.
"""

from __future__ import annotations

import itertools
import socket
import threading
from types import SimpleNamespace

import pytest

from repro import ExecutionOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.dataflow.compile import DataflowNodeSpec
from repro.runtime import Placement, merge_edges
from repro.runtime.placement import parse_host_port
from repro.runtime.sockets import recv_frame, send_frame, serve_listener
import repro.runtime.worker as worker_module
from repro.runtime.worker import SOURCE_CHANNEL, Worker, run_worker
from repro.stream import LEFT, RIGHT, StreamQuery
from repro.stream.elements import Tagged, Watermark

from tests.recovery.conftest import query_catalog, settled_rows

ON = (("Key", "Key"),)
ATTRIBUTES = ("Key", "Serial")

#: Two downstream entries: a consumer fanned out three ways on the join key
#: (workers 1-3, fed on its left side) and a single-partition one (worker 4,
#: fed on its right side).
NODE = DataflowNodeSpec(
    index=0,
    node_index=0,
    name="n",
    kind="left_outer",
    partition=0,
    partitions=1,
    left_attributes=ATTRIBUTES,
    right_attributes=ATTRIBUTES,
    on=ON,
    left_name="l",
    right_name="r",
    downstream=((1, 3, LEFT, (0,)), (4, 1, RIGHT, (0,))),
    producers=2,
    left_channels=(SOURCE_CHANNEL,),
    right_channels=(SOURCE_CHANNEL,),
    early_emit=True,
)


class _RecordingEmitter:
    def __init__(self) -> None:
        self.sent: list = []
        self.contexts: list = []

    def send(self, target, channel, tagged) -> None:
        self.sent.append((target, channel, tagged.side, tagged.element))
        self.contexts.append(tagged.trace)

    def done(self, target) -> None:
        self.sent.append((target, "done"))

    def flush(self) -> None:
        pass


def _drive(worker: Worker, traced: bool = False) -> None:
    """Feed a worker both source streams the way the router delivers them,
    every event carrying a trace context when ``traced``."""
    catalog, _left, _right = query_catalog(7, left_size=40, right_size=40, num_keys=16)
    edges = [
        (0, LEFT, iter(catalog.lookup_stream("l").replay())),
        (0, RIGHT, iter(catalog.lookup_stream("r").replay())),
    ]
    trace_ids = itertools.count(1)
    for _edge, _stage, side, element in merge_edges(edges, 7):
        if isinstance(element, Watermark):
            worker.accept(SOURCE_CHANNEL, Tagged(side, element))
        else:
            context = (next(trace_ids), "driver:0") if traced else None
            worker.accept(None, Tagged(side, element, None, context))
        worker.end_batch()
    worker.finish()


def test_traced_worker_sends_what_an_untraced_worker_sends():
    plain, traced = _RecordingEmitter(), _RecordingEmitter()
    _drive(Worker(NODE, plain))
    tracer = Tracer("0")
    _drive(Worker(NODE, traced, tracer=tracer), traced=True)
    assert traced.sent == plain.sent
    # The sequence exercises every routing shape: revisions hashed over the
    # three-way consumer, watermarks broadcast to each of its partitions and
    # to the single-partition consumer, and the closing done sentinels.
    revision_targets = {entry[0] for entry in plain.sent if entry[1] is None}
    assert revision_targets == {1, 2, 3, 4}
    watermark_targets = [
        entry[0] for entry in plain.sent if entry[1] == NODE.channel_id
    ]
    assert watermark_targets[:4] == [1, 2, 3, 4]
    assert plain.sent[-4:] == [(1, "done"), (2, "done"), (3, "done"), (4, "done")]
    # Only the traced run attached contexts — one emit span per revision,
    # carried to every consumer of that revision; watermarks carry none.
    assert set(plain.contexts) == {None}
    spans = {span["span"]: span for span in tracer.dump()}
    carried = [context for context in traced.contexts if context is not None]
    assert carried and all(spans[span]["name"] == "emit" for _trace, span in carried)
    # Revisions published at a batch end hang off the operate span of the
    # element that dirtied their group, in that element's trace.
    for trace_id, span in carried:
        parent = spans[spans[span]["parent"]]
        assert parent["name"] == "operate" and parent["trace"] == trace_id
    assert all(
        (context is None) == isinstance(entry[3], Watermark)
        for entry, context in zip(traced.sent, traced.contexts)
    )


class _Clocks:
    """A wall clock and a CPU clock the test advances by hand."""

    def __init__(self) -> None:
        self.wall = 1000.0
        self.cpu = 50.0

    def advance(self, wall: float, cpu: float) -> None:
        self.wall += wall
        self.cpu += cpu


class _SlowInbox:
    """Hands out fixed batches; each take blocks 10 s of wall, 0.5 s of CPU."""

    def __init__(self, batches, clocks: _Clocks) -> None:
        self._batches = list(batches)
        self._clocks = clocks

    def take_batch(self, max_size):
        self._clocks.advance(10.0, 0.5)
        return self._batches.pop(0) if self._batches else None


class _SharedCpuEmitter(_RecordingEmitter):
    """Each flush takes 5 s of wall but only 1 s of this thread's CPU, as
    when another node's thread holds the interpreter meanwhile."""

    def __init__(self, clocks: _Clocks) -> None:
        super().__init__()
        self._clocks = clocks

    def flush(self) -> None:
        self._clocks.advance(5.0, 1.0)


def test_busy_seconds_count_the_worker_threads_cpu_and_idle_seconds_wall(monkeypatch):
    clocks = _Clocks()
    monkeypatch.setattr(worker_module, "perf_counter", lambda: clocks.wall)
    monkeypatch.setattr(worker_module, "thread_time", lambda: clocks.cpu)
    catalog, _left, _right = query_catalog(7, left_size=10, right_size=10, num_keys=4)
    edges = [
        (0, LEFT, iter(catalog.lookup_stream("l").replay())),
        (0, RIGHT, iter(catalog.lookup_stream("r").replay())),
    ]
    elements = [
        (SOURCE_CHANNEL if isinstance(element, Watermark) else None, Tagged(side, element))
        for _edge, _stage, side, element in merge_edges(edges, 7)
    ]
    batches = [elements[index : index + 8] for index in range(0, len(elements), 8)]
    job = SimpleNamespace(
        metrics=True,
        trace=False,
        checkpoint_interval=None,
        micro_batch_size=8,
        metrics_interval=3600.0,
    )
    emitter = _SharedCpuEmitter(clocks)
    report = run_worker(NODE, _SlowInbox(batches, clocks), emitter, job)
    gauges = report.metrics["gauges"]
    # Busy: one CPU second per batch, none of the flush's wall time, none
    # of the CPU spent blocked in the inbox.
    assert gauges["busy_seconds"] == pytest.approx(1.0 * len(batches))
    # Idle: the wall time of every take, the last (``None``) one included.
    assert gauges["idle_seconds"] == pytest.approx(10.0 * (len(batches) + 1))
    assert any(entry[1] is None for entry in emitter.sent)


def test_always_on_counts_are_the_counters_metrics_would_report():
    silent = Worker(NODE, _RecordingEmitter())
    measured = Worker(NODE, _RecordingEmitter(), metrics=MetricsRegistry(worker=0))
    _drive(silent)
    _drive(measured)
    assert silent.metrics_snapshot() is None
    counters = measured.metrics_snapshot()["counters"]
    assert (silent.routed, silent.operated, silent.emitted) == (
        counters["elements_routed"],
        counters["elements_operated"],
        counters["elements_emitted"],
    )
    assert silent.routed >= silent.operated > 0 and silent.emitted > 0


# --------------------------------------------------------------------------- #
# every switch combination settles to the same answer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def seats():
    """Two long-lived in-process socket seats (no spawn per run)."""
    shutdown = threading.Event()
    listeners, threads = [], []
    for _ in range(2):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        listeners.append(listener)
        thread = threading.Thread(
            target=serve_listener,
            args=(listener,),
            kwargs={"shutdown": shutdown},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    yield Placement(
        tuple(f"127.0.0.1:{listener.getsockname()[1]}" for listener in listeners)
    )
    shutdown.set()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def _settled(placement: Placement, **switches) -> list:
    catalog, _left, _right = query_catalog(13, left_size=60, right_size=60)
    options = ExecutionOptions(
        transport="sockets",
        partitions=2,
        placement=placement,
        micro_batch_size=8,
        materialize_probabilities=True,
        trace_sample_rate=1.0,
        **switches,
    )
    result = StreamQuery(catalog, "full_outer", "l", "r", ON, config=options).run(
        merge_seed=13
    )
    assert result.workers == "sockets"
    assert result.recoveries() == []
    return settled_rows(result.relation)


@pytest.mark.parametrize(
    "metrics, trace, recovering",
    [
        combination
        for combination in itertools.product((False, True), repeat=3)
        if any(combination)
    ],
)
def test_no_switch_changes_what_a_socket_shard_run_settles_to(
    seats, metrics, trace, recovering
):
    recovery = (
        dict(restart_limit=1, checkpoint_interval=0.0) if recovering else {}
    )
    rows = _settled(seats, metrics=metrics, trace=trace, **recovery)
    assert rows and rows == _settled(seats)


def test_a_job_frame_of_another_shape_is_refused_by_name(seats):
    """Driver and workers ship from one checkout; a frame of any other shape
    (here: the eleven positional fields of an older driver) gets an error
    frame back — what the driver raises as a ``worker_error`` seat failure —
    instead of a job run on whatever fields happen to line up."""
    stale = ("job", "k", NODE, seats.addresses, 8, 64, True, 0.25, True, 0.0, None)
    with socket.create_connection(
        parse_host_port(seats.addresses[0]), timeout=5.0
    ) as connection:
        send_frame(connection, stale)
        kind, key, _index, message = recv_frame(connection.makefile("rb"))
    assert (kind, key) == ("error", "k")
    assert "11 field(s)" in message
    assert "('job', key, spec, addresses, RuntimeJob settings, restore)" in message
