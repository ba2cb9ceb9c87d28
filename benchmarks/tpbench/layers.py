"""Layer replay: every per-layer metric, timed from outside the program.

``--trace 1`` does not instrument ``src/``.  It materialises a workload's
intermediate inputs once — the merged ``Tagged`` list, the finalised
groups, the windows, the routed micro-batches, the revision list — and
calls each layer's public functions on them in pipeline order, each under
a benchmark-owned span (:mod:`spans`).  Counts come from the layers' public
stats objects at the same boundaries.

A metric is measured on the workloads whose path (or referee duty) includes
its layer and reads 0 elsewhere: 0 means "this workload does no work in
this layer".  Every replay that rebuilds a result checks it against the
workload's reference, so a layer number is never printed for a wrong
result; a mismatch raises :class:`ReplayMismatch`.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Sequence

from repro import ExecutionOptions, ta_left_outer_join, tp_left_outer_join
from repro.columnar import HAS_NUMPY, maintainer_class
from repro.core import (
    WindowClass,
    lawan,
    lawau,
    overlap_join,
    swap_theta,
    window_to_positive_tuple,
    window_to_tuple,
)
from repro.dataflow import DataflowQuery
from repro.dataflow.convergence import identity_rows
from repro.dataflow.executor import merge_edges, source_edges
from repro.dataflow.operators import RevisionJoin
from repro.dataflow.revision import Revision, RevisionKind
from repro.engine.planner import Planner, PlannerConfig
from repro.engine.sql import parse_query
from repro.lineage import ProbabilityComputer
from repro.parallel import parallel_tp_join
from repro.parallel.batch import canonical_order
from repro.parallel.serialize import decode_tagged, encode_tagged
from repro.recovery.checkpoint import encode_maintainer, restore_maintainer
from repro.relation import TPRelation, TPTuple, stable_key_hash
from repro.runtime import Channel
from repro.runtime.wire import decode_batch_frame, encode_batch_frame
from repro.serve import FanoutHub, ResultCache, StandingQueryService
from repro.serve.server import element_from_payload, element_payload
from repro.stream import continuous_join, merge_tagged, theta_from_pairs
from repro.stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark

from hostspeed import HostSpeed
from spans import SpanRecorder, find, self_times
from workloads import (
    MERGE_SEED,
    METEO_ON,
    BatchNJ,
    DataflowEarly,
    Outcome,
    ServeFanout,
    StreamJoin,
    StreamSharded,
    StreamDisorder,
    StreamInorder,
    Workload,
    output_digest,
)

clock = time.perf_counter

#: Root span of the pipeline executed under spans.
PASS = "pass"
#: Prefix of spans that time a standalone replay or a whole extra job: they
#: are measurements, not part of the pass, and stay out of its accounting.
REPLAY = "replay:"
MICRO_BATCH = ExecutionOptions().micro_batch_size


class ReplayMismatch(AssertionError):
    """A layer replay rebuilt a result that differs from the reference."""


def per(seconds: float, count: int) -> float:
    """``seconds / count`` in microseconds; 0 when nothing ran."""
    return 1e6 * seconds / count if count else 0.0


class Ledger:
    """The per-layer metrics and spans of one traced run.

    Every duration a metric is computed from is a span's ``seconds``:
    reference-host seconds (:mod:`hostspeed`), so that a layer timed in a
    slow phase of the host compares with one timed in a fast phase.
    """

    def __init__(self, workload: Workload, speed: HostSpeed, untraced_seconds: float) -> None:
        self.workload = workload
        self.untraced_seconds = untraced_seconds
        self.recorder = SpanRecorder(workload.name, speed)
        self.metrics: Dict[str, float] = {}
        #: Replays and whole extra jobs checked against the reference.
        self.failed_operations = 0
        self.attempted_operations = 0

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def judge(self, ok: bool, what: str) -> None:
        self.attempted_operations += 1
        if not ok:
            self.failed_operations += 1
            raise ReplayMismatch(what)

    def timed(self, name: str, function: Callable, *args):
        """``(value, reference-host seconds)`` of one call, under a span."""
        with self.recorder.span(name) as span:
            value = function(*args)
        return value, span["seconds"]

    def close_pass(self) -> None:
        """Overhead and accounting of the pipeline run under spans."""
        spans = self.recorder.spans
        layer_self = sum(
            seconds
            for name, seconds in self_times(spans).items()
            if name != PASS and not name.startswith(REPLAY)
        )
        root = find(spans, PASS)
        self.set("tpbench.trace_overhead_ratio", root["seconds"] / self.untraced_seconds)
        self.set("tpbench.accounted_ratio", layer_self / self.untraced_seconds)


def host_factor(span: dict) -> float:
    """Raw seconds per reference-host second over one closed span."""
    return (span["end"] - span["start"] - span["paused"]) / span["seconds"]


# --------------------------------------------------------------------------- #
# datasets
# --------------------------------------------------------------------------- #
def dataset_metrics(ledger: Ledger) -> None:
    costs = ledger.workload.setup_costs
    ledger.set("datasets.generate_s", costs.get("generate", 0.0))
    ledger.set("datasets.arrival_order_s", costs.get("arrival_order", 0.0))


# --------------------------------------------------------------------------- #
# batch-nj: overlap join -> LAWAU -> LAWAN -> concat -> probability
# --------------------------------------------------------------------------- #
def replay_batch_join(ledger: Ledger, kind: str, left, right, theta, totals) -> List[TPTuple]:
    """One NJ join assembled from its layers' public functions."""
    recorder = ledger.recorder
    events = left.events.merge(right.events)
    merged = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    reverse = kind == "full_outer"
    with recorder.span("core.overlap"):
        groups = overlap_join(merged, right, theta)
        reverse_groups = (
            overlap_join(right, merged, swap_theta(theta)) if reverse else []
        )
    totals["tuples"] += len(merged) + (len(right) if reverse else 0)
    totals["groups"] += len(groups) + len(reverse_groups)

    # LAWAN embeds the LAWAU sweep, so LAWAU is timed standalone and laid
    # inside the LAWAN span as its child.
    (wuo, reverse_wuo), lawau_seconds = ledger.timed(
        REPLAY + "core.lawau", lambda: (lawau(groups), lawau(reverse_groups))
    )
    totals["wuo"] += len(wuo) + len(reverse_wuo)
    with recorder.span("core.lawan"):
        windows = lawan(groups)
        reverse_windows = lawan(reverse_groups)
        recorder.add("core.lawau", lawau_seconds)
    totals["windows"] += len(windows) + len(reverse_windows)

    left_width, right_width = len(left.schema), len(right.schema)
    with recorder.span("core.concat"):
        if kind == "anti":
            tuples = [
                window_to_positive_tuple(window)
                for window in windows
                if window.window_class is not WindowClass.OVERLAPPING
            ]
        else:
            tuples = [
                window_to_tuple(window, left_width, right_width, left_is_positive=True)
                for window in windows
            ]
            tuples.extend(
                window_to_tuple(window, left_width, right_width, left_is_positive=False)
                for window in reverse_windows
                if window.window_class is not WindowClass.OVERLAPPING
            )
    totals["outputs"] += len(tuples)

    with recorder.span("lineage.probability"):
        computer = ProbabilityComputer(events)
        tuples = [
            TPTuple(t.fact, t.lineage, t.interval, computer.probability(t.lineage))
            for t in tuples
        ]
    totals["cache_hits"] += computer.cache_hits
    totals["cache_misses"] += computer.cache_misses
    return tuples


def trace_batch(workload: BatchNJ, ledger: Ledger) -> None:
    totals = dict.fromkeys(
        ("tuples", "groups", "wuo", "windows", "outputs", "cache_hits", "cache_misses"),
        0,
    )
    recorder = ledger.recorder
    with recorder.span(PASS):
        rebuilt = [
            replay_batch_join(
                ledger, kind, *workload.pairs[dataset], workload.thetas[dataset], totals
            )
            for dataset, kind in workload.requests
        ]
    for (dataset, kind), tuples in zip(workload.requests, rebuilt):
        ledger.judge(
            output_digest(tuples) == workload.digests[f"{dataset}.{kind}.output_digest"],
            f"layer replay of {dataset}.{kind} differs from the join",
        )
    ledger.close_pass()
    own = self_times(recorder.spans)
    ledger.set("core.overlap.us_per_tuple", per(own["core.overlap"], totals["tuples"]))
    ledger.set("core.overlap.groups", totals["groups"])
    ledger.set("core.lawau.us_per_window", per(own["core.lawau"], totals["wuo"]))
    ledger.set("core.lawan.us_per_window", per(own["core.lawan"], totals["windows"]))
    ledger.set("core.windows.count", totals["windows"])
    ledger.set("core.concat.us_per_output", per(own["core.concat"], totals["outputs"]))
    ledger.set(
        "lineage.probability.us_per_output",
        per(own["lineage.probability"], totals["outputs"]),
    )
    lookups = totals["cache_hits"] + totals["cache_misses"]
    ledger.set(
        "lineage.probability.cache_hit_ratio",
        totals["cache_hits"] / lookups if lookups else 0.0,
    )

    # Referee: the paper's Fig. 7 shape, TA over NJ on the Meteo prefix.
    left, right = workload.pairs["meteo"]
    head = workload.size("ta_ratio_n")
    left, right = left.head(head), right.head(head)
    theta = workload.thetas["meteo"]
    nj, nj_seconds = ledger.timed(REPLAY + "nj", tp_left_outer_join, left, right, theta)
    ta, ta_seconds = ledger.timed(
        REPLAY + "baselines.temporal_alignment", ta_left_outer_join, left, right, theta
    )
    ledger.judge(
        identity_rows(nj) == identity_rows(ta), "TA differs from NJ"
    )
    ledger.set("baselines.ta_over_nj_ratio", ta_seconds / nj_seconds)

    # Informational: two process shards against the serial join above it.
    left, right = workload.pairs["meteo"]
    sharded, seconds = ledger.timed(
        REPLAY + "parallel.batch",
        lambda: parallel_tp_join("left_outer", left, right, METEO_ON, workers=2),
    )
    ledger.judge(
        output_digest(sharded.relation)
        == workload.digests["meteo.left_outer.output_digest"],
        "parallel_tp_join differs from the serial join",
    )
    ledger.set("parallel.batch.w2_s", seconds)
    _ordered, seconds = ledger.timed(
        REPLAY + "parallel.batch.merge", canonical_order, sharded.relation.tuples
    )
    ledger.set("parallel.batch.merge_s", seconds)


# --------------------------------------------------------------------------- #
# stream-*: source -> maintainer -> finalisation sweeps -> operator
# --------------------------------------------------------------------------- #
def drain_sources(workload: StreamJoin) -> tuple[List[Tagged], int]:
    """The merged element list one pass feeds the router, and the late drops."""
    left = workload.catalog.lookup_stream("r").replay()
    right = workload.catalog.lookup_stream("s").replay()
    elements = list(merge_tagged(left, right, seed=MERGE_SEED))
    return elements, left.stats.late_evicted + right.stats.late_evicted


def count_events(elements: Iterable[Tagged]) -> int:
    return sum(1 for tagged in elements if isinstance(tagged.element, StreamEvent))


def feed_maintainer(maintainer, tagged: Tagged) -> list:
    """One tagged element into a window maintainer; the groups it finalised."""
    element = tagged.element
    if isinstance(element, StreamEvent):
        if tagged.side == LEFT:
            maintainer.add_positive(element.tuple, ingest_clock=clock())
        else:
            maintainer.add_negative(element.tuple)
        return []
    if tagged.side == LEFT:
        return maintainer.advance_left(element.value)
    return maintainer.advance_right(element.value)


def drive_maintainer(ledger: Ledger, name: str, maintainer, elements: Sequence[Tagged]) -> dict:
    """Feed the tagged list straight into one window maintainer.

    Per-call clock readings split the loop into ingestion and watermark
    advance; the enclosing span turns both into reference-host seconds.
    """
    add_seconds = advance_seconds = 0.0
    watermarks = 0
    finalized: list = []
    with ledger.recorder.span(name) as span:
        for tagged in elements:
            started = clock()
            groups = feed_maintainer(maintainer, tagged)
            if isinstance(tagged.element, StreamEvent):
                add_seconds += clock() - started
            else:
                advance_seconds += clock() - started
                watermarks += 1
                finalized.extend(groups)
        started = clock()
        finalized.extend(maintainer.close())
        advance_seconds += clock() - started
    factor = host_factor(span)
    return {
        "add_seconds": add_seconds / factor,
        "advance_seconds": advance_seconds / factor,
        "watermarks": watermarks,
        "finalized": finalized,
    }


def replay_finalisation(workload: StreamJoin, ledger: Ledger, maintainer, finalized) -> dict:
    """The sweeps an operator replays per finalised group, stage by stage."""
    groups = [[item.group] for item in finalized]
    wuo, lawau_seconds = ledger.timed(
        REPLAY + "core.lawau", lambda: [lawau(group) for group in groups]
    )
    windows, lawan_seconds = ledger.timed(
        REPLAY + "core.lawan", lambda: [lawan(group) for group in groups]
    )
    left_width = len(workload.left.schema)
    right_width = len(workload.right.schema)
    tuples, concat_seconds = ledger.timed(
        REPLAY + "core.concat",
        lambda: [
            [
                window_to_tuple(window, left_width, right_width, left_is_positive=True)
                for window in group_windows
            ]
            for group_windows in windows
        ],
    )
    probability_seconds = 0.0
    if workload.materialize:
        tuples, probability_seconds = ledger.timed(
            REPLAY + "lineage.probability",
            lambda: [
                [
                    replace(
                        tp_tuple,
                        probability=maintainer.computer_for(item.key).probability(
                            tp_tuple.lineage
                        ),
                    )
                    for tp_tuple in group_tuples
                ]
                for item, group_tuples in zip(finalized, tuples)
            ],
        )
    return {
        "groups": len(groups),
        "lawau_seconds": lawau_seconds,
        # LAWAN embeds the LAWAU sweep: its own share is the difference.
        "lawan_seconds": max(0.0, lawan_seconds - lawau_seconds),
        "concat_seconds": concat_seconds,
        "probability_seconds": probability_seconds,
        "wuo": sum(len(group) for group in wuo),
        "windows": sum(len(group) for group in windows),
        "tuples": [tp_tuple for group in tuples for tp_tuple in group],
    }


def merged_events(workload: StreamJoin):
    left_def = workload.catalog.lookup_stream("r")
    return left_def.events.merge(workload.catalog.lookup_stream("s").events)


def drive_operator(workload: StreamJoin, ledger: Ledger, elements: Sequence[Tagged]) -> dict:
    """``continuous_join(...).process`` over the tagged list, as a seat runs it.

    Runs inside the ``stream.operators`` span the caller holds open; the
    split into event and watermark calls is raw seconds (the caller scales).
    """
    left_def = workload.catalog.lookup_stream("r")
    right_def = workload.catalog.lookup_stream("s")
    operator = continuous_join(
        "left_outer",
        left_def.schema,
        right_def.schema,
        workload.on,
        left_name=left_def.name,
        right_name=right_def.name,
        events=merged_events(workload),
        materialize_probabilities=workload.materialize,
    )
    event_seconds = watermark_seconds = 0.0
    outputs: List[TPTuple] = []
    for tagged in elements:
        started = clock()
        emitted = operator.process(tagged)
        elapsed = clock() - started
        if isinstance(tagged.element, Watermark):
            watermark_seconds += elapsed
            outputs.extend(emitted)
        else:
            event_seconds += elapsed
    started = clock()
    outputs.extend(operator.close())
    watermark_seconds += clock() - started
    return {
        "event_seconds": event_seconds,
        "watermark_seconds": watermark_seconds,
        "outputs": outputs,
    }


def standalone_layers(
    workload: StreamJoin, ledger: Ledger, shards: Sequence[Sequence[Tagged]]
) -> List[dict]:
    """Per shard, outside the ``pass`` span: maintainer, sweeps, columnar state.

    The operator calls its maintainer and the finalisation sweeps
    internally, where a benchmark span cannot reach.  So they are replayed
    standalone on the same elements; :func:`operate_shards` lays their
    times inside the operator span as its children.
    """
    theta = theta_from_pairs(workload.left.schema, workload.right.schema, workload.on)
    events = merged_events(workload) if workload.materialize else None
    replays = []
    rebuilt: List[TPTuple] = []
    for elements in shards:
        maintainer = maintainer_class("object")(theta, events=events)
        driven = drive_maintainer(
            ledger, REPLAY + "stream.incremental", maintainer, elements
        )
        swept = replay_finalisation(workload, ledger, maintainer, driven.pop("finalized"))
        rebuilt.extend(swept.pop("tuples"))
        replay = {"events": count_events(elements), **driven, **swept}
        replay["stats"] = maintainer.stats
        replay["counters"] = (
            maintainer.probability_counters() if workload.materialize else {}
        )
        if HAS_NUMPY:
            columnar = drive_maintainer(
                ledger,
                REPLAY + "columnar.state",
                maintainer_class("columnar")(theta, events=events),
                elements,
            )
            ledger.judge(
                len(columnar["finalized"]) == replay["groups"],
                "columnar maintainer finalised a different number of groups",
            )
            replay["columnar_seconds"] = (
                columnar["add_seconds"],
                columnar["advance_seconds"],
            )
        replays.append(replay)
    ledger.judge(
        identity_rows(rebuilt, with_probability=workload.materialize)
        == workload.reference_rows,
        "standalone layer replay differs from the reference",
    )
    return replays


def operate_shards(
    workload: StreamJoin,
    ledger: Ledger,
    shards: Sequence[Sequence[Tagged]],
    replays: Sequence[dict],
) -> List[TPTuple]:
    """Inside the ``pass`` span: the operator over each shard's elements.

    The caller checks the returned outputs once the span is closed.
    """
    recorder = ledger.recorder
    outputs: List[TPTuple] = []
    for elements, replay in zip(shards, replays):
        with recorder.span("stream.operators") as span:
            operated = drive_operator(workload, ledger, elements)
            recorder.add(
                "stream.incremental", replay["add_seconds"] + replay["advance_seconds"]
            )
            recorder.add("core.lawau", replay["lawau_seconds"])
            recorder.add("core.lawan", replay["lawan_seconds"])
            recorder.add("core.concat", replay["concat_seconds"])
            recorder.add("lineage.probability", replay["probability_seconds"])
        factor = host_factor(span)
        replay["process_seconds"] = operated["event_seconds"] / factor
        replay["emit_seconds"] = operated["watermark_seconds"] / factor
        replay["outputs"] = len(operated["outputs"])
        outputs.extend(operated["outputs"])
    stream_layer_metrics(ledger, replays)
    return outputs


def stream_layer_metrics(ledger: Ledger, replays: Sequence[dict]) -> None:
    def total(key: str) -> float:
        return sum(replay[key] for replay in replays)

    events, outputs = int(total("events")), int(total("outputs"))
    watermarks = int(total("watermarks"))
    object_seconds = total("add_seconds") + total("advance_seconds")
    ledger.set("stream.incremental.add_us_per_event", per(total("add_seconds"), events))
    ledger.set(
        "stream.incremental.advance_us_per_watermark",
        per(total("advance_seconds"), watermarks),
    )
    ledger.set(
        "stream.incremental.peak_open_positives",
        max(replay["stats"].peak_open_positives for replay in replays),
    )
    ledger.set(
        "stream.incremental.peak_indexed_negatives",
        max(replay["stats"].peak_indexed_negatives for replay in replays),
    )
    ledger.set(
        "stream.incremental.negatives_evicted",
        sum(replay["stats"].negatives_evicted for replay in replays),
    )
    if HAS_NUMPY:
        add = sum(replay["columnar_seconds"][0] for replay in replays)
        advance = sum(replay["columnar_seconds"][1] for replay in replays)
        ledger.set("columnar.state.add_us_per_event", per(add, events))
        ledger.set("columnar.state.advance_us_per_watermark", per(advance, watermarks))
        ledger.set("columnar.state.speedup_vs_object", object_seconds / (add + advance))
    ledger.set("core.lawau.us_per_window", per(total("lawau_seconds"), int(total("wuo"))))
    ledger.set(
        "core.lawan.us_per_window", per(total("lawan_seconds"), int(total("windows")))
    )
    ledger.set("core.windows.count", total("windows"))
    ledger.set("core.concat.us_per_output", per(total("concat_seconds"), outputs))
    ledger.set(
        "lineage.probability.us_per_output", per(total("probability_seconds"), outputs)
    )
    hits = sum(r["counters"].get("probability_cache_hits", 0) for r in replays)
    misses = sum(r["counters"].get("probability_cache_misses", 0) for r in replays)
    ledger.set(
        "lineage.probability.cache_hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0,
    )
    ledger.set(
        "stream.operators.process_us_per_event", per(total("process_seconds"), events)
    )
    ledger.set("stream.operators.emit_us_per_output", per(total("emit_seconds"), outputs))


def trace_source(workload: StreamJoin, ledger: Ledger) -> List[Tagged]:
    (elements, late), seconds = ledger.timed("stream.source", drain_sources, workload)
    ledger.judge(late == workload.expected_late, "sources dropped a different count")
    ledger.set("stream.source.us_per_event", per(seconds, count_events(elements)))
    ledger.set("stream.source.late_dropped", late)
    return elements


def timed_run(workload: StreamJoin, options: ExecutionOptions, ledger: Ledger, label: str):
    """One whole job under other options, verified like any pass."""
    result, seconds = ledger.timed(
        REPLAY + label,
        lambda: workload.make_query(options).run(merge_seed=MERGE_SEED),
    )
    ledger.judge(
        identity_rows(result.relation, with_probability=workload.materialize)
        == workload.reference_rows,
        f"run under {label} differs from the reference",
    )
    return result, seconds


def trace_stream(workload: StreamJoin, ledger: Ledger) -> List[Tagged]:
    """stream-inorder and stream-disorder: the inline path, fully accounted.

    Returns the merged element list, for the replays that follow.
    """
    elements, _late = drain_sources(workload)
    replays = standalone_layers(workload, ledger, [elements])
    del elements
    gc.collect()  # the untraced passes start from a collected heap too
    with ledger.recorder.span(PASS):
        elements = trace_source(workload, ledger)
        outputs = operate_shards(workload, ledger, [elements], replays)
    ledger.judge(
        identity_rows(outputs, with_probability=workload.materialize)
        == workload.reference_rows,
        "operator replay differs from the reference",
    )
    ledger.close_pass()
    return elements


def trace_checkpoint(workload: StreamJoin, ledger: Ledger, elements) -> None:
    """Snapshot and restore the window state as it stands mid-run."""
    theta = theta_from_pairs(workload.left.schema, workload.right.schema, workload.on)
    half = maintainer_class("object")(theta)
    for tagged in elements[: len(elements) // 2]:
        feed_maintainer(half, tagged)
    code, encode_seconds = ledger.timed(
        REPLAY + "recovery.checkpoint.encode", encode_maintainer, half
    )
    fresh = maintainer_class("object")(theta)
    _none, restore_seconds = ledger.timed(
        REPLAY + "recovery.checkpoint.restore", restore_maintainer, fresh, code
    )
    ledger.judge(
        (fresh.open_positives, fresh.indexed_negatives)
        == (half.open_positives, half.indexed_negatives),
        "restored maintainer holds different state",
    )
    ledger.set("recovery.checkpoint.encode_ms", 1000.0 * encode_seconds)
    ledger.set("recovery.checkpoint.restore_ms", 1000.0 * restore_seconds)
    ledger.set("recovery.checkpoint.bytes", len(pickle.dumps(code)))


def trace_obs(workload: StreamJoin, ledger: Ledger) -> None:
    """Metrics-on and full tracing against off, interleaved off/on/on/off."""
    base = workload.options
    _r, off_first = timed_run(workload, base, ledger, "obs.off")
    _r, metrics_on = timed_run(workload, replace(base, metrics=True), ledger, "obs.metrics")
    _r, trace_on = timed_run(
        workload, replace(base, trace=True, trace_sample_rate=1.0), ledger, "obs.trace"
    )
    _r, off_last = timed_run(workload, base, ledger, "obs.off")
    off = (off_first + off_last) / 2.0
    ledger.set("obs.metrics.on_over_off_ratio", metrics_on / off)
    ledger.set("obs.trace.full_over_off_ratio", trace_on / off)


def trace_sql_plan(workload: StreamJoin, ledger: Ledger) -> None:
    sql = "SELECT * FROM STREAM r TP LEFT OUTER JOIN STREAM s ON r.Metric = s.Metric"
    planner = Planner(workload.catalog, PlannerConfig(stream_config=workload.options))
    rounds = 50
    _none, seconds = ledger.timed(
        REPLAY + "engine.sql",
        lambda: [planner.plan(parse_query(sql).plan) for _ in range(rounds)],
    )
    ledger.set("engine.sql.plan_ms", 1000.0 * seconds / rounds)


# --------------------------------------------------------------------------- #
# stream-sharded: route -> encode -> hop -> decode -> operate -> merge
# --------------------------------------------------------------------------- #
def route(workload: StreamSharded, elements: Sequence[Tagged], partitions: int):
    theta = theta_from_pairs(workload.left.schema, workload.right.schema, workload.on)
    shards: List[List[Tagged]] = [[] for _ in range(partitions)]
    for tagged in elements:
        element = tagged.element
        if isinstance(element, StreamEvent):
            key = (
                theta.left_key(element.tuple)
                if tagged.side == LEFT
                else theta.right_key(element.tuple)
            )
            shards[stable_key_hash(key) % partitions].append(tagged)
        else:
            for shard in shards:
                shard.append(tagged)
    return shards


def micro_batches(shards: Sequence[Sequence[Tagged]]) -> List[List[Tagged]]:
    return [
        list(shard[start : start + MICRO_BATCH])
        for shard in shards
        for start in range(0, len(shard), MICRO_BATCH)
    ]


def trace_codecs(ledger: Ledger, batches: Sequence[Sequence[Tagged]]) -> List[list]:
    """Tuple codec + pickle: what the socket transport ships today."""
    events = sum(count_events(batch) for batch in batches)
    with ledger.recorder.span("parallel.serialize"):
        (coded, pickles), encode_seconds = ledger.timed(
            "parallel.serialize.encode", lambda: encode_batches(batches)
        )
        decoded, decode_seconds = ledger.timed(
            "parallel.serialize.decode",
            lambda: [
                [decode_tagged(code) for _channel, code in pickle.loads(data)[2]]
                for data in pickles
            ],
        )
    ledger.judge(decoded == [list(batch) for batch in batches], "tuple codec round trip")
    ledger.set("parallel.serialize.encode_us_per_event", per(encode_seconds, events))
    ledger.set("parallel.serialize.decode_us_per_event", per(decode_seconds, events))
    ledger.set(
        "parallel.serialize.pickle_bytes_per_event",
        sum(len(data) for data in pickles) / events,
    )
    return coded


def encode_batches(batches: Sequence[Sequence[Tagged]]):
    coded = [[(None, encode_tagged(tagged)) for tagged in batch] for batch in batches]
    return coded, [pickle.dumps(("batch", "job", batch)) for batch in coded]


def trace_wire(ledger: Ledger, coded: Sequence[list]) -> None:
    """Not on today's path (object layout ships pickles): the wire referee."""
    events = sum(1 for batch in coded for _channel, code in batch if code[0] == "e")
    frames, encode_seconds = ledger.timed(
        REPLAY + "runtime.wire.encode",
        lambda: [encode_batch_frame("job", batch) for batch in coded],
    )
    decoded, decode_seconds = ledger.timed(
        REPLAY + "runtime.wire.decode",
        lambda: [decode_batch_frame(frame)[1] for frame in frames],
    )
    ledger.judge(decoded == [list(batch) for batch in coded], "wire frame round trip")
    ledger.set("runtime.wire.encode_us_per_event", per(encode_seconds, events))
    ledger.set("runtime.wire.decode_us_per_event", per(decode_seconds, events))
    ledger.set("runtime.wire.bytes_per_event", sum(len(f) for f in frames) / events)


def trace_sharded(workload: StreamSharded, ledger: Ledger, sockets_result) -> None:
    partitions = workload.options.partitions
    recorder = ledger.recorder
    elements, _late = drain_sources(workload)
    replays = standalone_layers(workload, ledger, route(workload, elements, partitions))
    del elements
    gc.collect()  # the untraced passes start from a collected heap too
    with recorder.span(PASS):
        elements = trace_source(workload, ledger)
        shards, _seconds = ledger.timed(
            "stream.query.route", route, workload, elements, partitions
        )
        coded = trace_codecs(ledger, micro_batches(shards))
        outputs = operate_shards(workload, ledger, shards, replays)
        ledger.timed("parallel.batch.merge", canonical_order, outputs)
    ledger.judge(
        identity_rows(outputs, with_probability=False) == workload.reference_rows,
        "sharded replay differs from the reference",
    )
    ledger.close_pass()
    trace_wire(ledger, coded)

    events = count_events(elements)
    routed = [count_events(shard) for shard in shards]
    ledger.set("runtime.transport.partition_skew", max(routed) / (sum(routed) / partitions))
    ledger.set("runtime.transport.backpressure_blocks", sockets_result.backpressure_blocks)
    seconds_by_transport = {"sockets": ledger.untraced_seconds}
    _result, seconds_by_transport["inline"] = timed_run(
        workload, ExecutionOptions(), ledger, "transport.inline"
    )
    for transport in ("threads", "processes"):
        result, seconds_by_transport[transport] = timed_run(
            workload,
            replace(workload.options, transport=transport),
            ledger,
            f"transport.{transport}",
        )
        ledger.judge(result.workers == transport, f"{transport} transport fell back")
    for transport, seconds in seconds_by_transport.items():
        ledger.set(f"runtime.transport.{transport}.events_per_s", events / seconds)
    # Seats the driver spawns itself: run time comes in half-second steps.
    _result, seconds = timed_run(
        workload,
        replace(workload.options, placement=None),
        ledger,
        "transport.sockets.spawned",
    )
    ledger.set("runtime.transport.sockets.spawned_events_per_s", events / seconds)
    ledger.set(
        "runtime.transport.sockets.hop_us_per_event",
        per(seconds_by_transport["sockets"] - seconds_by_transport["inline"], events),
    )
    _result, seconds = timed_run(
        workload,
        replace(workload.options, checkpoint_interval=0.5, restart_limit=1),
        ledger,
        "recovery.checkpointed",
    )
    ledger.set("recovery.checkpoint.overhead_ratio", seconds / ledger.untraced_seconds)


# --------------------------------------------------------------------------- #
# dataflow-early and serve-fanout: revision operators, channels, hub, codec
# --------------------------------------------------------------------------- #
def replay_graph(workload: Workload, ledger: Ledger, tree, early: bool) -> Dict[str, tuple]:
    """Drive one RevisionJoin per node depth-first, as the inline executor does.

    Returns, per node, its operator and its output element list (revisions
    and watermarks).
    """
    graph = DataflowQuery(workload.catalog, tree, ExecutionOptions()).graph
    index_of = {name: index for index, name in enumerate(graph.node_names)}
    delivery, seconds = ledger.timed(
        "stream.source",
        lambda: list(merge_edges(source_edges(graph, index_of), MERGE_SEED)),
    )
    events = sum(1 for item in delivery if isinstance(item[3], StreamEvent))
    ledger.set("stream.source.us_per_event", per(seconds, events))
    ledger.set("stream.source.late_dropped", 0)

    joins = [
        RevisionJoin(
            spec.kind,
            graph.schema_of(spec.left),
            graph.schema_of(spec.right),
            spec.on,
            left_name=spec.left,
            right_name=spec.right,
            early_emit=early,
        )
        for spec in tree
    ]
    consumers = {
        index_of[spec.name]: [
            (index_of[other.name], side)
            for other in tree
            for side, source in ((LEFT, other.left), (RIGHT, other.right))
            if source == spec.name
        ]
        for spec in tree
    }
    produced: Dict[int, list] = {index: [] for index in consumers}
    inputs = 0

    def feed(target: int, tagged: Tagged) -> None:
        nonlocal inputs
        inputs += 1
        deliver(target, joins[target].process(tagged))

    def deliver(producer: int, emitted: list) -> None:
        produced[producer].extend(emitted)
        for element in emitted:
            for consumer, side in consumers[producer]:
                feed(consumer, Tagged(side, element))

    def drive() -> None:
        for _slot, target, side, element in delivery:
            feed(target, Tagged(side, element))
        for index, join in enumerate(joins):
            deliver(index, join.close())

    _none, seconds = ledger.timed("dataflow.operators", drive)
    ledger.set("dataflow.operators.process_us_per_revision", per(seconds, inputs))
    for counter in ("emits", "retracts", "refines"):
        ledger.set(
            f"dataflow.operators.{counter}",
            sum(getattr(join.stats, counter) for join in joins),
        )
    return {
        spec.name: (joins[index_of[spec.name]], produced[index_of[spec.name]])
        for spec in tree
    }


def trace_channel(ledger: Ledger, elements: Sequence) -> None:
    """Bounded channel put + micro-batch take, as the thread transport moves them."""

    def move() -> None:
        channel: Channel = Channel(ExecutionOptions().buffer_capacity, producers=1)
        for start in range(0, len(elements), MICRO_BATCH):
            for element in elements[start : start + MICRO_BATCH]:
                channel.put(element)
            channel.take_batch(MICRO_BATCH)

    _none, seconds = ledger.timed("runtime.channel", move)
    ledger.set("runtime.channel.put_get_us_per_element", per(seconds, len(elements)))


def executor_rates(workload: Workload, ledger: Ledger, tree, early_seconds: float,
                   early_result, reference_rows) -> None:
    """The same tree with early emission off, against an early-emitting run."""
    settled_query = DataflowQuery(
        workload.catalog, tree, ExecutionOptions(early_emit=False, transport="threads")
    )
    settled, seconds = ledger.timed(
        REPLAY + "dataflow.executor.settled",
        lambda: settled_query.run(merge_seed=MERGE_SEED),
    )
    sink = tree[-1].name
    ledger.judge(
        identity_rows(settled.nodes[sink].relation, with_probability=False)
        == reference_rows,
        "watermark-only run differs from the reference",
    )
    events = early_result.events_processed
    ledger.set("dataflow.executor.early_events_per_s", events / early_seconds)
    ledger.set("dataflow.executor.settled_events_per_s", events / seconds)
    retracts = sum(node.stats.retracts for node in early_result.nodes.values())
    additions = sum(
        node.stats.emits + node.stats.refines for node in early_result.nodes.values()
    )
    ledger.set("dataflow.executor.retraction_rate", retracts / additions)


def trace_dataflow(workload: DataflowEarly, ledger: Ledger, early_result) -> None:
    with ledger.recorder.span(PASS):
        nodes = replay_graph(workload, ledger, workload.tree, early=True)
    for name, (join, _elements) in nodes.items():
        ledger.judge(
            identity_rows(join.settled_outputs.values(), with_probability=False)
            == workload.reference_rows[name],
            f"operator replay of {name} differs from the reference",
        )
    ledger.close_pass()
    trace_channel(ledger, nodes["n1"][1])
    executor_rates(
        workload, ledger, workload.tree, ledger.untraced_seconds, early_result,
        workload.reference_rows["n2"],
    )


def trace_hub(ledger: Ledger, elements: Sequence, cursors: int) -> FanoutHub:
    """Publish the revision list to ``cursors`` draining subscribers."""
    hub = FanoutHub()
    subscriptions = [hub.attach() for _ in range(cursors)]
    threads = [
        threading.Thread(target=lambda s=subscription: sum(1 for _ in s))
        for subscription in subscriptions
    ]
    for thread in threads:
        thread.start()

    def publish() -> None:
        for element in elements:
            hub.publish(element)
        hub.close()
        for thread in threads:
            thread.join()

    _none, seconds = ledger.timed(f"serve.hub.n{cursors}", publish)
    ledger.set(
        f"serve.hub.publish_us_per_element.n{cursors}", per(seconds, len(elements))
    )
    return hub


def trace_serve_codec(ledger: Ledger, elements: Sequence) -> None:
    with ledger.recorder.span("serve.server"):
        lines, encode_seconds = ledger.timed(
            "serve.server.encode",
            lambda: [json.dumps(element_payload(element)) for element in elements],
        )
        decoded, decode_seconds = ledger.timed(
            "serve.server.decode",
            lambda: [element_from_payload(json.loads(line)) for line in lines],
        )
    ledger.judge(
        [getattr(e, "tuple", e) for e in decoded]
        == [getattr(e, "tuple", e) for e in elements],
        "NDJSON codec round trip",
    )
    count = len(elements)
    ledger.set("serve.server.encode_us_per_element", per(encode_seconds, count))
    ledger.set("serve.server.decode_us_per_element", per(decode_seconds, count))
    ledger.set(
        "serve.server.ndjson_bytes_per_element", sum(len(line) + 1 for line in lines) / count
    )


def serve_in_process(workload: ServeFanout, ledger: Ledger, shared: bool) -> float:
    """Both standing queries, one in-process subscriber each, no TCP."""
    count = workload.subscribers
    if shared:
        services = [StandingQueryService(workload.catalog, merge_seed=MERGE_SEED)] * count
    else:
        services = [
            StandingQueryService(workload.catalog, merge_seed=MERGE_SEED)
            for _ in range(count)
        ]
    # The catalog keeps one standing-query namespace, and the TCP service
    # already holds q0/q1 in it.
    names = [f"{'shared' if shared else 'own'}-q{index}" for index in range(count)]
    for index, service in enumerate(services):
        service.register(names[index], workload.node(index))
    caches = [ResultCache() for _ in range(count)]

    def drain(subscription, cache: ResultCache) -> None:
        for tp_tuple in subscription.snapshot or ():
            cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
        for element in subscription:
            cache.apply(element)

    def serve() -> None:
        threads = []
        for index, service in enumerate(services):
            subscription = service.subscribe(names[index])
            thread = threading.Thread(target=drain, args=(subscription, caches[index]))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()

    label = "serve.registry.shared" if shared else "serve.registry.unshared"
    _none, seconds = ledger.timed(REPLAY + label, serve)
    for index, service in enumerate(services):
        service.unregister(names[index])
    ledger.judge(
        all(
            sorted(t.key() for t in cache.snapshot()) == workload.reference_keys
            for cache in caches
        ),
        "in-process subscriber differs from the reference",
    )
    return seconds


def trace_serve(workload: ServeFanout, ledger: Ledger) -> None:
    tree = workload.node(0)
    with ledger.recorder.span(PASS):
        nodes = replay_graph(workload, ledger, tree, early=True)
        join, elements = nodes[tree[0].name]
        trace_channel(ledger, elements)
        hub = trace_hub(ledger, elements, 1)
        cache = ResultCache()
        _none, seconds = ledger.timed(
            "serve.cache", lambda: [cache.apply(element) for element in elements]
        )
        trace_serve_codec(ledger, elements)
    revisions = sum(1 for element in elements if isinstance(element, Revision))
    ledger.set("serve.cache.apply_us_per_revision", per(seconds, revisions))
    ledger.judge(
        sorted(t.key() for t in cache.snapshot()) == workload.reference_keys
        and sorted(t.key() for t in join.settled_outputs.values())
        == workload.reference_keys,
        "revision replay differs from the reference",
    )
    ledger.close_pass()
    wide = trace_hub(ledger, elements, 4)
    ledger.set("serve.hub.blocks", hub.publish_blocks + wide.publish_blocks)
    ledger.set("serve.hub.drops", hub.dropped_provisional + wide.dropped_provisional)

    # Shared against unshared serving, interleaved A/B/B/A.
    seconds_by_sharing = {True: 0.0, False: 0.0}
    for shared in (True, False, False, True):
        seconds_by_sharing[shared] += serve_in_process(workload, ledger, shared)
    ledger.set(
        "serve.registry.shared_over_unshared_ratio",
        seconds_by_sharing[True] / seconds_by_sharing[False],
    )
    direct = DataflowQuery(workload.catalog, tree, ExecutionOptions(early_emit=True))
    early, seconds = ledger.timed(
        REPLAY + "dataflow.executor.early",
        lambda: direct.run(merge_seed=MERGE_SEED, backend="threads"),
    )
    executor_rates(
        workload, ledger, tree, seconds, early,
        identity_rows(early.relation, with_probability=False),
    )


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def trace(
    workload: Workload, speed: HostSpeed, untraced_seconds: float, outcome: Outcome
) -> Ledger:
    """Run the layer replay of one workload.

    ``untraced_seconds`` is the median untraced pass in reference-host
    seconds and ``outcome`` the last of those passes.
    """
    ledger = Ledger(workload, speed, untraced_seconds)
    dataset_metrics(ledger)
    if isinstance(workload, BatchNJ):
        trace_batch(workload, ledger)
    elif isinstance(workload, StreamSharded):
        trace_sharded(workload, ledger, outcome.payload)
    elif isinstance(workload, StreamDisorder):
        trace_checkpoint(workload, ledger, trace_stream(workload, ledger))
    elif isinstance(workload, StreamInorder):
        trace_stream(workload, ledger)
        trace_obs(workload, ledger)
        trace_sql_plan(workload, ledger)
    elif isinstance(workload, DataflowEarly):
        trace_dataflow(workload, ledger, outcome.payload)
    elif isinstance(workload, ServeFanout):
        trace_serve(workload, ledger)
    ledger.set("host.calibration_ms", speed.mean_ms())
    ledger.set("host.nproc", os.cpu_count() or 1)
    return ledger
