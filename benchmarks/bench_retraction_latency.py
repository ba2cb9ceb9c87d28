"""Early emission vs. watermark-only: emit latency and retraction rate.

The retractable dataflow subsystem (:mod:`repro.dataflow`) can publish a
window *before* the combined watermark closes it, at the price of
retract/refine traffic when late data corrects it.  This benchmark
quantifies that trade on a 3-way continuous join tree (a Meteo-like
``left_outer`` feeding a ``right_outer`` — one reverse-window node, as the
acceptance scenario requires), at two or more disorder settings:

* **wall-clock emit latency** — per positive group, ingestion to first
  publication (p50/p95 ms), in both modes;
* **event-time emit lag** — how far the input frontier (max event start
  seen) had progressed past a group's interval end at first publication.
  Watermark-only emission floors this at the configured watermark lag (the
  source lateness bound); early emission publishes *before* the frontier
  passes the group, so its p50 sits **below the watermark lag** — asserted,
  not just reported;
* **retraction rate** — output retractions per addition, the price paid.

Every configuration first proves convergence (settled output of every node
equals the batch re-run) before any number is reported, so the benchmark
cannot measure a wrong computation.  Results go to
``bench_results/BENCH_retraction_latency.json``.

Run with::

    python benchmarks/bench_retraction_latency.py              # default sizes
    python benchmarks/bench_retraction_latency.py --smoke      # CI-sized
    python benchmarks/bench_retraction_latency.py --sizes 2000 --disorder 4,16
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from conftest import bench_payload_base

from repro.dataflow import DataflowQuery, NodeSpec, assert_converged
from repro.datasets.meteo import meteo_config
from repro.datasets import ReplayConfig, stream_def
from repro.datasets.generators import generate_relation
from repro.engine import Catalog
from repro.harness.reporting import write_bench_file
from repro.lineage import EventSpace
from repro.options import ExecutionOptions
from repro.stream.query import summarize_latency_ms

def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of an event-time lag list (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


TREE = [
    NodeSpec("n1", "left_outer", "r", "s", (("Metric", "Metric"),)),
    NodeSpec("n2", "right_outer", "n1", "t", (("Metric", "Metric"),)),
]


def build_catalog(size: int, disorder: int, seed: int) -> Catalog:
    """Three Meteo-like streams over one shared event space."""
    events = EventSpace()
    catalog = Catalog()
    for offset, name in enumerate(("r", "s", "t")):
        relation = generate_relation(
            meteo_config(size, seed=seed + offset), events, name=name
        )
        catalog.register_stream(
            name,
            stream_def(relation, ReplayConfig(disorder=disorder, seed=seed + offset)),
        )
    return catalog


def run_one(size: int, disorder: int, early: bool, seed: int, backend: str) -> dict:
    catalog = build_catalog(size, disorder, seed)
    # Small buffers on purpose: they bound how far a fast source edge can run
    # ahead of a chained operator's output (pipeline skew), so the event-time
    # lag measurement reflects operator behaviour, not queue depth.
    query = DataflowQuery(
        catalog,
        TREE,
        ExecutionOptions(
            early_emit=early, transport=backend, buffer_capacity=32, micro_batch_size=4
        ),
    )
    result = query.run(merge_seed=seed, backend=backend)
    # Refuse to report numbers for a run that did not converge.
    assert_converged(result, catalog, TREE, check_probabilities=False)

    latencies: List[float] = []
    lags: List[float] = []
    retracts = additions = 0
    for node in result.nodes.values():
        latencies.extend(node.emit_latencies)
        lags.extend(node.emit_event_lags)
        retracts += node.stats.retracts
        additions += node.stats.emits + node.stats.refines
    return {
        "size": size,
        "disorder": disorder,
        "watermark_lag": disorder,  # ReplayConfig defaults lateness = disorder
        "mode": "early_emit" if early else "watermark_only",
        "backend": result.backend,
        "events": result.events_processed,
        "outputs_settled": len(result.relation),
        "emit_latency_ms": {
            key: round(value, 4) for key, value in summarize_latency_ms(latencies).items()
        },
        "emit_event_lag_p50": percentile(lags, 0.50),
        "emit_event_lag_p95": percentile(lags, 0.95),
        "retracts": retracts,
        "additions": additions,
        "retraction_rate": round(retracts / additions, 4) if additions else 0.0,
        "stream_seconds": round(result.elapsed_seconds, 6),
    }


def report_line(record: dict) -> str:
    latency = record["emit_latency_ms"]
    return (
        f"size={record['size']:>6}  disorder={record['disorder']:>3}  "
        f"{record['mode']:>14}  emit p50={latency['p50_ms']:>8.2f}ms "
        f"p95={latency['p95_ms']:>8.2f}ms  event-lag p50={record['emit_event_lag_p50']:>6.1f} "
        f"(lag bound {record['watermark_lag']})  retr={record['retraction_rate']:.2%}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--sizes", default=None, help="comma-separated relation sizes (default 1000)"
    )
    parser.add_argument(
        "--disorder", default="8,16", help="comma-separated disorder settings (default 8,16)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="threads", choices=("inline", "threads", "processes"))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI smoke runs")
    parser.add_argument("--json-dir", default="bench_results")
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        sizes = [250]
    elif arguments.sizes:
        sizes = [int(part) for part in arguments.sizes.split(",") if part.strip()]
    else:
        sizes = [1000]
    disorders = [int(part) for part in arguments.disorder.split(",") if part.strip()]
    if len(disorders) < 2:
        parser.error("need at least two disorder settings to compare")
    if any(disorder <= 0 for disorder in disorders):
        parser.error("disorder settings must be positive (the lag bound is compared)")

    records: List[dict] = []
    failures: List[str] = []
    for size in sizes:
        for disorder in disorders:
            pair = {}
            for early in (False, True):
                record = run_one(size, disorder, early, arguments.seed, arguments.backend)
                records.append(record)
                pair[record["mode"]] = record
                print(report_line(record))
            early_lag = pair["early_emit"]["emit_event_lag_p50"]
            if early_lag >= disorder:
                failures.append(
                    f"size={size} disorder={disorder}: early-emit p50 event lag "
                    f"{early_lag} did not beat the watermark lag {disorder}"
                )
            if not pair["early_emit"]["retracts"]:
                failures.append(
                    f"size={size} disorder={disorder}: early emission produced "
                    "no retractions — nothing was actually provisional"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all runs converged; early-emit p50 event lag below the watermark lag")

    if arguments.json_dir:
        metrics: dict = {}
        for record in records:
            prefix = f"s{record['size']}_d{record['disorder']}_{record['mode']}"
            metrics[f"{prefix}_outputs"] = record["outputs_settled"]
            metrics[f"{prefix}_events"] = record["events"]
            metrics[f"{prefix}_retraction_rate"] = record["retraction_rate"]
            metrics[f"{prefix}_emit_p50_ms"] = record["emit_latency_ms"]["p50_ms"]
        payload = bench_payload_base(
            "retraction_latency",
            "Early emission vs watermark-only: emit latency and retraction rate",
            seed=arguments.seed,
            metrics=metrics,
            tree=[spec.describe() for spec in TREE],
            measurements=records,
        )
        path = write_bench_file("retraction_latency", payload, arguments.json_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
