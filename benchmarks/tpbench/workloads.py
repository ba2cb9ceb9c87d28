"""The six tpbench workloads: inputs from a seed, one pass, one verdict.

Every workload is a closed loop with one driver: sources are pull-based and
routers block on backpressure, so there is no arrival schedule to fall
behind.  Each uses ``ExecutionOptions()`` defaults except the fields its
definition names — none sets ``layout``, ``metrics``, ``trace`` or
``checkpoint_interval``, so a later change of a default shows up here.

A workload object is used in this order::

    setup()        inputs, arrival orders, catalogs, queries (timed: setup_s)
    reference()    the independent result every pass is checked against
    run_pass()     one closed-loop pass over the inputs (timed by the caller)
    failed_operations(outcome)  how many of the pass's operations (one, or one
                   per subscriber) did not produce the reference result
    counts(outcome) exact counts that must repeat pass to pass and run to run
    close()        stop whatever setup() started
"""

from __future__ import annotations

import asyncio
import hashlib
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import (
    ExecutionOptions,
    naive_anti_join,
    naive_full_outer_join,
    naive_left_outer_join,
    ta_left_outer_join,
    tp_anti_join,
    tp_full_outer_join,
    tp_left_outer_join,
)
from repro.dataflow import DataflowQuery, NodeSpec
from repro.dataflow.convergence import (
    assert_converged,
    drained_relation,
    identity_rows,
)
from repro.dataflow.revision import Revision, RevisionKind
from repro.datasets import ReplayConfig, meteo_pair, stream_def, webkit_pair
from repro.datasets.generators import generate_relation
from repro.datasets.meteo import meteo_config
from repro.engine import Catalog
from repro.lineage import EventSpace
from repro.relation import EquiJoinCondition, TPTuple
from repro.runtime import Placement
from repro.serve import ResultCache, ServeClient, ServeServer, StandingQueryService
from repro.serve.server import element_from_payload
from repro.stream import StreamQuery
from repro.stream.elements import StreamEvent, Watermark

from stats import percentile, tail_rank

#: Sources are interleaved round-robin, not by a seeded random choice: a
#: random interleaving lets one side run ahead like a random walk, the
#: combined watermark then trails by a seed-dependent amount, and emit
#: latency of statistically identical inputs differs 2x from seed to seed.
MERGE_SEED = None

#: Event-time lead a paced source may take before it yields heartbeats: half
#: the lateness of the in-order workloads, so the lead never decides when a
#: window closes, yet heartbeats stay a few percent of the elements.
PACE_SLACK = 4

#: Latency samples a chunk needs for its 99th percentile to have ten beyond.
TAIL_SAMPLES = 1000

METEO_ON = (("Metric", "Metric"),)
WEBKIT_ON = (("File", "File"),)


# --------------------------------------------------------------------------- #
# canonical result views
# --------------------------------------------------------------------------- #
def output_digest(tuples: Iterable[TPTuple]) -> str:
    """sha256 over the canonical rows, probabilities by ``repr``: bitwise exact."""
    digest = hashlib.sha256()
    for row in identity_rows(tuples, with_probability=True):
        digest.update(repr(row).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# event-time paced sources
# --------------------------------------------------------------------------- #
class Pacer:
    """Keeps the sources of one run abreast in event time.

    The executors interleave sources by element count.  Two generated
    streams of equal size drift apart in event time like a random walk, the
    combined watermark trails the faster one by that drift, and emit latency
    ends up measuring the drift: 126 to 236 events at the median, depending
    on nothing but the seed.  Real sources are abreast in time.  So a paced
    source, polled while its next event lies ahead of another source's next
    event by more than ``PACE_SLACK`` time points, answers with a heartbeat
    (its current watermark, a no-op downstream) instead, and the other
    source catches up.
    """

    def __init__(self) -> None:
        self.next_start: Dict[str, float] = {}
        self.done: Dict[str, bool] = {}

    def pace(self, stream):
        """The same registered stream, paced against this pacer's others."""
        name = stream.name

        def replay():
            if name in self.done:  # a new run starts: forget the last one
                self.next_start.clear()
                self.done.clear()
            self.done[name] = False
            return _PacedSource(self, name, stream.replay())

        return replace(stream, replay=replay)

    def must_wait(self, name: str, start: float) -> bool:
        return any(
            start > other_start + PACE_SLACK and not self.done[other]
            for other, other_start in self.next_start.items()
            if other != name
        )


class _PacedSource:
    """One paced replay; exposes the wrapped source's eviction ``stats``."""

    def __init__(self, pacer: Pacer, name: str, source) -> None:
        self._pacer = pacer
        self._name = name
        self._source = source

    @property
    def stats(self):
        return self._source.stats

    def __iter__(self):
        pacer, name = self._pacer, self._name
        for element in self._source:
            if isinstance(element, StreamEvent):
                start = element.tuple.start
                pacer.next_start[name] = start
                while pacer.must_wait(name, start):
                    yield Watermark(self._source.watermark)
            yield element
        pacer.done[name] = True


@dataclass
class Outcome:
    """What one pass produced, before it is judged."""

    events: int
    latencies: List[float]
    payload: Any = None
    #: ``Workload.counts`` of this pass, once computed (digests are not cheap).
    counted: Optional[Dict[str, Any]] = None


class Workload:
    """Base class; see the module docstring for the call order."""

    name = ""
    #: Nominal sizes; ``--quick`` multiplies them by ``scale``.
    sizes: Dict[str, int] = {}
    #: Run the child on one CPU.  Every workload but stream-sharded is one
    #: interpreter (one core at most, by the GIL).  Left unpinned, the
    #: kernel spreads a threaded workload's threads over both cores after
    #: about a second, every GIL hand-off becomes a cross-core wake-up, and
    #: a serve-fanout pass goes from 0.09 s to 0.25 s +-30 % — a property of
    #: CPython on this box, not of the code under test.  Pinning also keeps
    #: the calibration kernel on the core the workload runs on.
    one_cpu = True

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        #: Seconds spent inside the dataset layer during setup(), by call.
        self.setup_costs: Dict[str, float] = {}

    def size(self, key: str) -> int:
        return max(60, int(self.sizes[key] * self.scale))

    def timed_setup(self, key: str, function, *args, **kwargs):
        started = time.perf_counter()
        value = function(*args, **kwargs)
        self.setup_costs[key] = self.setup_costs.get(key, 0.0) + (
            time.perf_counter() - started
        )
        return value

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> bool:
        raise NotImplementedError

    def counts(self, outcome: Outcome) -> Dict[str, Any]:
        raise NotImplementedError

    def operations(self, outcome: Outcome) -> int:
        """How many operations one pass attempts (subscriber-passes on serve)."""
        return 1

    def failed_operations(self, outcome: Outcome) -> int:
        return 0 if self.check(outcome) else self.operations(outcome)

    def summarize_latency(self, passes: Sequence[Sequence[float]]) -> Dict[str, float]:
        """``p50_ms`` / ``p99_ms`` / sample count / tail rank actually used.

        Consecutive passes are pooled into chunks of at least
        ``TAIL_SAMPLES`` samples, so that the 99th percentile of a chunk has
        ten samples beyond it; each percentile is taken per chunk and the
        median over the chunks is reported.  One pass in a slow phase of the
        host then moves one chunk, not the whole tail.  With fewer samples
        than one chunk needs, the tail falls to the highest percentile of
        the ladder that still has ten samples beyond it.
        """
        chunks: List[List[float]] = [[]]
        for samples in passes:
            if len(chunks[-1]) >= TAIL_SAMPLES:
                chunks.append([])
            chunks[-1].extend(samples)
        if len(chunks) > 1 and len(chunks[-1]) < TAIL_SAMPLES:
            chunks[-2].extend(chunks.pop())
        rank = tail_rank(min(len(chunk) for chunk in chunks)) or 50.0
        return {
            "p50_ms": 1000.0 * median(percentile(chunk, 50.0) for chunk in chunks),
            "p99_ms": 1000.0 * median(percentile(chunk, rank) for chunk in chunks),
            "samples": sum(len(chunk) for chunk in chunks),
            "tail_rank": rank,
        }

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# batch-nj
# --------------------------------------------------------------------------- #
BATCH_JOINS = {
    "anti": tp_anti_join,
    "left_outer": tp_left_outer_join,
    "full_outer": tp_full_outer_join,
}
NAIVE_JOINS = {
    "anti": naive_anti_join,
    "left_outer": naive_left_outer_join,
    "full_outer": naive_full_outer_join,
}


class BatchNJ(Workload):
    """The paper's own experiment: the three NJ joins on Meteo and WebKit."""

    name = "batch-nj"
    sizes = {"n": 1000, "ta_n": 400, "naive_n": 150, "ta_ratio_n": 800}

    def setup(self) -> None:
        n = self.size("n")
        self.pairs = {
            "meteo": self.timed_setup("generate", meteo_pair, n, seed=self.seed),
            "webkit": self.timed_setup("generate", webkit_pair, n, seed=self.seed),
        }
        self.thetas = {
            "meteo": self._theta(self.pairs["meteo"], METEO_ON),
            "webkit": self._theta(self.pairs["webkit"], WEBKIT_ON),
        }
        self.requests = [
            (dataset, kind) for dataset in self.pairs for kind in BATCH_JOINS
        ]
        self.digests: Optional[Dict[str, str]] = None

    @staticmethod
    def _theta(pair, on) -> EquiJoinCondition:
        return EquiJoinCondition(pair[0].schema, pair[1].schema, on)

    def reference(self) -> None:
        """Independent oracles on prefixes: TA at ``ta_n``, naive at ``naive_n``.

        The full-size outputs have no affordable independent oracle (TA is
        ~35x NJ at N=800 and superlinear), so full size is held to exact
        repetition of the warm-up digest, and the operators themselves are
        held to TA and to the definition-level naive join on prefixes.
        """
        for dataset, (left, right) in self.pairs.items():
            theta = self.thetas[dataset]
            head = self.size("ta_n")
            nj = tp_left_outer_join(left.head(head), right.head(head), theta)
            ta = ta_left_outer_join(left.head(head), right.head(head), theta)
            if identity_rows(nj) != identity_rows(ta):
                raise AssertionError(f"NJ and TA left outer join differ on {dataset}")
            head = self.size("naive_n")
            for kind, join in BATCH_JOINS.items():
                got = join(left.head(head), right.head(head), theta)
                want = NAIVE_JOINS[kind](left.head(head), right.head(head), theta)
                if identity_rows(got) != identity_rows(want):
                    raise AssertionError(
                        f"NJ and naive {kind} join differ on {dataset}"
                    )

    def run_pass(self) -> Outcome:
        latencies, results = [], []
        events = 0
        for dataset, kind in self.requests:
            left, right = self.pairs[dataset]
            started = time.perf_counter()
            result = BATCH_JOINS[kind](left, right, self.thetas[dataset])
            latencies.append(time.perf_counter() - started)
            results.append(result)
            events += len(left) + len(right)
        return Outcome(events=events, latencies=latencies, payload=results)

    def counts(self, outcome: Outcome) -> Dict[str, Any]:
        if outcome.counted is None:
            outcome.counted = {}
            for (dataset, kind), result in zip(self.requests, outcome.payload):
                outcome.counted[f"{dataset}.{kind}.outputs"] = len(result)
                outcome.counted[f"{dataset}.{kind}.output_digest"] = output_digest(result)
        return outcome.counted

    def check(self, outcome: Outcome) -> bool:
        """The first (warm-up) pass fixes the digests; later ones must repeat."""
        got = {
            key: value
            for key, value in self.counts(outcome).items()
            if key.endswith("output_digest")
        }
        if self.digests is None:
            self.digests = got
        return got == self.digests

    def summarize_latency(self, passes: Sequence[Sequence[float]]) -> Dict[str, float]:
        """A request is one join; there are six kinds of request.

        Each kind's latency is its median over the passes; p50 is the median
        kind, and p99 of a six-kind mix is the slowest kind.  Pooling raw
        samples instead would make the tail the slowest pass of the slowest
        kind — one sample.
        """
        per_kind = [median(samples) for samples in zip(*passes)]
        return {
            "p50_ms": 1000.0 * median(per_kind),
            "p99_ms": 1000.0 * max(per_kind),
            "samples": len(per_kind) * len(passes),
            "tail_rank": 100.0,
        }


# --------------------------------------------------------------------------- #
# stream-* (one StreamQuery over a replayed pair)
# --------------------------------------------------------------------------- #
class StreamJoin(Workload):
    """``left_outer`` StreamQuery over a replayed pair, settled vs. batch."""

    dataset = "meteo"
    on = METEO_ON
    materialize = False
    options = ExecutionOptions()
    #: Pace the two sources against each other (see :class:`Pacer`).
    paced = True

    def replay_config(self, seed: int) -> ReplayConfig:
        raise NotImplementedError

    def setup(self) -> None:
        pair_of = meteo_pair if self.dataset == "meteo" else webkit_pair
        self.left, self.right = self.timed_setup(
            "generate", pair_of, self.size("n"), seed=self.seed
        )
        self.catalog = Catalog()
        pacer = Pacer()
        # stream_def() computes the arrival order once per stream.
        for offset, (name, relation) in enumerate((("r", self.left), ("s", self.right))):
            stream = self.timed_setup(
                "arrival_order",
                stream_def,
                relation,
                self.replay_config(self.seed + offset),
                name=name,
            )
            self.catalog.register_stream(
                name, pacer.pace(stream) if self.paced else stream
            )
        self.query = self.make_query(self.options)

    def make_query(self, options: ExecutionOptions) -> StreamQuery:
        return StreamQuery(
            self.catalog, "left_outer", "r", "s", self.on, config=options
        )

    def reference(self) -> None:
        """The batch join over what the sources deliver: inputs minus late drops."""
        left = drained_relation(self.catalog.lookup_stream("r"))
        right = drained_relation(self.catalog.lookup_stream("s"))
        theta = EquiJoinCondition(left.schema, right.schema, self.on)
        batch = tp_left_outer_join(
            left, right, theta, compute_probabilities=self.materialize
        )
        self.reference_rows = identity_rows(batch, with_probability=self.materialize)
        self.survivor_count = len(left) + len(right)
        self.expected_late = len(self.left) + len(self.right) - self.survivor_count

    def run_pass(self) -> Outcome:
        result = self.query.run(merge_seed=MERGE_SEED)
        return Outcome(
            events=result.events_processed,
            latencies=result.emit_latencies,
            payload=result,
        )

    def check(self, outcome: Outcome) -> bool:
        result = outcome.payload
        return (
            identity_rows(result.relation, with_probability=self.materialize)
            == self.reference_rows
            and result.events_processed == self.survivor_count
            and result.late_dropped == self.expected_late
        )

    def counts(self, outcome: Outcome) -> Dict[str, Any]:
        result = outcome.payload
        return {
            "events": result.events_processed,
            "outputs": result.outputs_emitted,
            "late_dropped": result.late_dropped,
        }


class StreamInorder(StreamJoin):
    """Small window state, probabilities materialised inline."""

    name = "stream-inorder"
    sizes = {"n": 3000}
    materialize = True
    options = ExecutionOptions(materialize_probabilities=True)

    def replay_config(self, seed: int) -> ReplayConfig:
        return ReplayConfig(disorder=8, watermark_every=8, seed=seed)


class StreamDisorder(StreamJoin):
    """Disorder ~1/3 of the event-time span; 2-5 % of events dropped late."""

    name = "stream-disorder"
    sizes = {"n": 4000}
    # Arrival is jittered by hundreds of time points here, so "the next
    # event's start" says nothing about a source's progress; and the
    # lateness (hundreds too) dwarfs any drift between the sources.
    paced = False

    def replay_config(self, seed: int) -> ReplayConfig:
        # Meteo packs n tuples of ~6+1 time points over 40 keys, so the
        # event-time span is ~n/40*7.2; a third of it is ~n*0.06.
        disorder = max(16, int(self.size("n") * 0.064))
        return ReplayConfig(
            disorder=disorder,
            lateness=int(0.88 * disorder),
            watermark_every=128,
            seed=seed,
        )

    def reference(self) -> None:
        super().reference()
        if self.scale >= 1.0 and not self.expected_late:
            raise AssertionError("stream-disorder must drop some events late")


class StreamSharded(StreamJoin):
    """Two socket seats: route, encode, TCP hop, decode, operate, merge.

    The seats are two long-lived local worker servers named by a
    ``Placement``, not seats the driver spawns per run.  A driver-spawned
    seat polls ``accept`` with a 0.5 s timeout and the driver joins it on the
    way out, so every run takes a whole number of half seconds (0.52 s for
    4 000 events, 0.53 s for 8 000, 1.1 s for 16 000): no codec or hop change
    would show.  The layer replay still times one driver-spawned run
    (``runtime.transport.sockets.spawned_events_per_s``).
    """

    name = "stream-sharded"
    sizes = {"n": 4000}
    one_cpu = False  # a driver and two seats: the one workload with processes
    dataset = "webkit"
    on = WEBKIT_ON
    seats = 2

    def replay_config(self, seed: int) -> ReplayConfig:
        return ReplayConfig(disorder=8, watermark_every=8, seed=seed)

    def setup(self) -> None:
        self.processes = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-W",
                    "error::DeprecationWarning",
                    "-m",
                    "repro.runtime.worker",
                    "--listen",
                    "127.0.0.1:0",
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(self.seats)
        ]
        addresses = []
        for process in self.processes:
            ready = re.search(r"listening on (\S+)", process.stdout.readline())
            if ready is None:
                raise RuntimeError("a worker seat did not report its address")
            addresses.append(ready.group(1))
        self.options = ExecutionOptions(
            partitions=self.seats,
            transport="sockets",
            placement=Placement(tuple(addresses)),
        )
        super().setup()

    def close(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            try:
                process.wait(10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()

    def reference(self) -> None:
        super().reference()
        inline = self.make_query(ExecutionOptions()).run(merge_seed=MERGE_SEED)
        if identity_rows(inline.relation, with_probability=False) != self.reference_rows:
            raise AssertionError("inline run differs from the batch join")

    def check(self, outcome: Outcome) -> bool:
        # A seat that could not start degrades to threads with a warning:
        # that is not the workload, so it is a failed operation.
        return super().check(outcome) and outcome.payload.workers == "sockets"


# --------------------------------------------------------------------------- #
# shared: Meteo streams over one event space (dataflow and serve)
# --------------------------------------------------------------------------- #
def meteo_streams(
    workload: Workload, names: str, size: int, disorder: int
) -> Dict[str, Any]:
    """One paced stream definition per name, all over a single event space."""
    events = EventSpace()
    pacer = Pacer()
    streams = {}
    for offset, name in enumerate(names):
        relation = workload.timed_setup(
            "generate",
            generate_relation,
            meteo_config(size, seed=workload.seed + offset),
            events,
            name=name,
        )
        streams[name] = pacer.pace(
            workload.timed_setup(
                "arrival_order",
                stream_def,
                relation,
                ReplayConfig(disorder=disorder, seed=workload.seed + offset),
            )
        )
    return streams


# --------------------------------------------------------------------------- #
# dataflow-early
# --------------------------------------------------------------------------- #
class DataflowEarly(Workload):
    """Write-beside-read: ``(r left-outer s) right-outer t`` with early emission."""

    name = "dataflow-early"
    sizes = {"n": 400}
    tree = [
        NodeSpec("n1", "left_outer", "r", "s", METEO_ON),
        NodeSpec("n2", "right_outer", "n1", "t", METEO_ON),
    ]
    options = ExecutionOptions(early_emit=True, transport="threads")

    def setup(self) -> None:
        self.catalog = Catalog()
        for name, stream in meteo_streams(self, "rst", self.size("n"), 8).items():
            self.catalog.register_stream(name, stream)
        self.query = DataflowQuery(self.catalog, self.tree, self.options)
        self.reference_rows: Optional[Dict[str, list]] = None

    def reference(self) -> None:
        """``assert_converged`` on one run; its rows then referee every pass."""
        result = self.query.run(merge_seed=MERGE_SEED)
        assert_converged(result, self.catalog, self.tree, check_probabilities=False)
        self.reference_rows = self._rows(result)

    def _rows(self, result) -> Dict[str, list]:
        return {
            spec.name: identity_rows(
                result.nodes[spec.name].relation, with_probability=False
            )
            for spec in self.tree
        }

    def run_pass(self) -> Outcome:
        result = self.query.run(merge_seed=MERGE_SEED)
        # Only a node fed by sources alone sees source-stamped positives.
        # Revisions between nodes carry no ingest stamp, so n2 stamps them
        # on arrival and its first-publication latencies are ~0.05 ms for
        # over half its groups: pooled, the median would sit on that cliff.
        sources = set(self.catalog.stream_names())
        latencies = [
            value
            for spec in self.tree
            if {spec.left, spec.right} <= sources
            for value in result.nodes[spec.name].emit_latencies
        ]
        return Outcome(
            events=result.events_processed, latencies=latencies, payload=result
        )

    def check(self, outcome: Outcome) -> bool:
        result = outcome.payload
        for node in result.nodes.values():
            stats = node.stats
            if stats.emits + stats.refines - stats.retracts != len(node.relation):
                return False
        return self._rows(result) == self.reference_rows

    def counts(self, outcome: Outcome) -> Dict[str, Any]:
        result = outcome.payload
        counted = {"events": result.events_processed}
        for name, node in result.nodes.items():
            counted[f"{name}.settled"] = len(node.relation)
        return counted


# --------------------------------------------------------------------------- #
# serve-fanout
# --------------------------------------------------------------------------- #
def stamped(stream, stamps: Dict[str, float]):
    """The same stream, each base event stamped when the source creates it."""

    def replay():
        for element in stream.replay():
            if isinstance(element, StreamEvent):
                (variable,) = element.tuple.lineage.variables()
                stamps[variable] = time.perf_counter()
            yield element

    return replace(stream, replay=replay)


class ServeFanout(Workload):
    """Two standing queries in one plan group, two TCP subscribers."""

    name = "serve-fanout"
    sizes = {"n": 400}
    subscribers = 2

    def node(self, index: int) -> List[NodeSpec]:
        return [NodeSpec(f"join_q{index}", "left_outer", "r", "s", METEO_ON)]

    def setup(self) -> None:
        self.stamps: Dict[str, float] = {}
        self.catalog = Catalog()
        for name, stream in meteo_streams(self, "rs", self.size("n"), 8).items():
            self.catalog.register_stream(name, stamped(stream, self.stamps))
        self.inputs = sum(
            self.catalog.lookup_stream(name).stats.cardinality for name in "rs"
        )
        self.service = StandingQueryService(self.catalog, merge_seed=MERGE_SEED)
        for index in range(self.subscribers):
            self.service.register(f"q{index}", self.node(index))
        self.server = ServeServer(self.service)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.loop_thread = threading.Thread(target=serve, name="tpbench-serve-loop")
        self.loop_thread.start()
        if not started.wait(30.0):
            raise RuntimeError("serve loop did not start")

    def reference(self) -> None:
        direct = DataflowQuery(
            self.catalog, self.node(0), ExecutionOptions(early_emit=True)
        ).run(merge_seed=MERGE_SEED, backend="threads")
        self.reference_keys = sorted(t.key() for t in direct.relation)

    def _subscribe(self, name: str, sink: list) -> None:
        cache = ResultCache()
        receipts: List[tuple] = []
        with ServeClient("127.0.0.1", self.server.port) as client:
            snapshot = client.subscribe(name)
            now = time.perf_counter()
            for tp_tuple in snapshot:
                cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
                receipts.append((now, tp_tuple))
            for message in client.events():
                now = time.perf_counter()
                if message["type"] == "end":
                    break
                element = element_from_payload(message)
                cache.apply(element)
                if isinstance(element, Revision) and element.adds:
                    receipts.append((now, element.tuple))
        sink.append((cache, receipts))

    def run_pass(self) -> Outcome:
        self.stamps.clear()
        delivered: list = []
        threads = [
            threading.Thread(target=self._subscribe, args=(f"q{index}", delivered))
            for index in range(self.subscribers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Outcome(events=self.inputs, latencies=[], payload=delivered)

    def deliver_latencies(self, outcome: Outcome) -> List[float]:
        """Per first-received revision of an output tuple, after the pass:
        receipt time minus the newest creation stamp among its base events."""
        latencies = []
        for _cache, receipts in outcome.payload:
            seen = set()
            for received, tp_tuple in receipts:
                identity = (tp_tuple.fact, tp_tuple.start, tp_tuple.end)
                if identity in seen:
                    continue
                seen.add(identity)
                created = max(
                    self.stamps[name] for name in tp_tuple.lineage.variables()
                )
                latencies.append(received - created)
        return latencies

    def operations(self, outcome: Outcome) -> int:
        return self.subscribers

    def failed_operations(self, outcome: Outcome) -> int:
        outcome.latencies = self.deliver_latencies(outcome)
        good = sum(
            1
            for cache, _receipts in outcome.payload
            if sorted(t.key() for t in cache.snapshot()) == self.reference_keys
        )
        return self.subscribers - good

    def counts(self, outcome: Outcome) -> Dict[str, Any]:
        return {
            "events": self.inputs,
            "settled": [len(cache) for cache, _receipts in outcome.payload],
        }

    def close(self) -> None:
        self.service.shutdown()
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.loop_thread.join(10.0)
        self.loop.close()


WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchNJ,
        StreamInorder,
        StreamDisorder,
        StreamSharded,
        DataflowEarly,
        ServeFanout,
    )
}
