"""Serving fan-out: subscribers × shared-vs-unshared standing queries.

The serving layer (:mod:`repro.serve`) claims two scaling properties:

* **Plan sharing** — Q structurally identical standing queries run as one
  merged dataflow (one operator set, one set of probability tables), so
  serving Q queries costs about one execution, not Q;
* **Sublinear fan-out** — delivering one revision stream to N subscribers
  costs one bounded ring append plus N cursor reads, so total wall time
  grows far slower than N× the single-subscriber run.

This benchmark measures both axes: Q identical queries served **shared**
(one :class:`~repro.serve.StandingQueryService`, one plan group) versus
**unshared** (one service per query — Q independent graph executions), at
increasing subscriber counts per query.  Every subscriber accumulates its
snapshot + live tail into a :class:`~repro.serve.ResultCache`, and every
accumulated state must equal the settled relation of a **direct
single-consumer** :meth:`~repro.dataflow.DataflowQuery.run` before any
number is reported — the benchmark cannot measure a wrong or incomplete
delivery.

On non-smoke runs two gates apply: shared serving must beat unshared
serving, and shared fan-out cost must stay sublinear in N
(``t(N) < N × t(1)``).  Results go to
``bench_results/BENCH_serving_fanout.json``.

Run with::

    python benchmarks/bench_serving_fanout.py             # default sizes
    python benchmarks/bench_serving_fanout.py --smoke     # CI-sized
    python benchmarks/bench_serving_fanout.py --subscribers 1,2,8
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List, Sequence

from conftest import bench_payload_base

from repro.dataflow import DataflowQuery, NodeSpec
from repro.dataflow.revision import Revision, RevisionKind
from repro.datasets import ReplayConfig, stream_def
from repro.datasets.generators import generate_relation
from repro.datasets.meteo import meteo_config
from repro.engine import Catalog
from repro.harness.reporting import write_bench_file
from repro.lineage import EventSpace
from repro.options import ExecutionOptions
from repro.runtime import available_cpus
from repro.relation import TPTuple
from repro.serve import ResultCache, StandingQueryService

ON = (("Metric", "Metric"),)


def build_catalog(size: int, disorder: int, seed: int) -> Catalog:
    """Two Meteo-like streams over one shared event space."""
    events = EventSpace()
    catalog = Catalog()
    for offset, name in enumerate(("r", "s")):
        relation = generate_relation(
            meteo_config(size, seed=seed + offset), events, name=name
        )
        catalog.register_stream(
            name,
            stream_def(relation, ReplayConfig(disorder=disorder, seed=seed + offset)),
        )
    return catalog


def query_nodes(index: int) -> List[NodeSpec]:
    """Structurally identical joins under per-query node names."""
    return [NodeSpec(f"join_q{index}", "left_outer", "r", "s", ON)]


def settled_keys(tuples: Sequence[TPTuple]) -> List[tuple]:
    return sorted(tp_tuple.key() for tp_tuple in tuples)


def run_direct(size: int, disorder: int, seed: int) -> dict:
    """The convergence reference: one single-consumer dataflow run."""
    catalog = build_catalog(size, disorder, seed)
    query = DataflowQuery(catalog, query_nodes(0), ExecutionOptions(early_emit=True))
    result = query.run(merge_seed=seed, backend="threads")
    return {
        "seconds": result.elapsed_seconds,
        "source_events": result.events_processed,
        "outputs": len(result.relation),
        "keys": settled_keys(result.relation.tuples),
    }


def _drain_into(subscription, cache: ResultCache, counters: List[int]) -> None:
    snapshot = subscription.snapshot or ()
    for tp_tuple in snapshot:
        cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
    delivered = len(snapshot)
    for element in subscription:
        cache.apply(element)
        delivered += 1
    counters.append(delivered)


def run_served(
    size: int,
    disorder: int,
    seed: int,
    num_queries: int,
    subscribers: int,
    shared: bool,
    reference_keys: List[tuple],
) -> dict:
    """Serve ``num_queries`` identical queries to ``subscribers`` each.

    ``shared`` uses one service (one merged plan group); otherwise each
    query gets its own service and therefore its own graph execution.
    """
    config = ExecutionOptions(early_emit=True)

    def make_service() -> StandingQueryService:
        return StandingQueryService(
            build_catalog(size, disorder, seed),
            config=config,
            hub_capacity=8192,
            merge_seed=seed,
        )

    if shared:
        service = make_service()
        services = [service] * num_queries
    else:
        services = [make_service() for _ in range(num_queries)]
    for index in range(num_queries):
        services[index].register(f"q{index}", query_nodes(index))

    caches = [ResultCache() for _ in range(num_queries * subscribers)]
    delivered: List[int] = []
    threads: List[threading.Thread] = []
    started = time.perf_counter()
    for index in range(num_queries):
        for _ in range(subscribers):
            subscription = services[index].subscribe(f"q{index}")
            thread = threading.Thread(
                target=_drain_into,
                args=(subscription, caches[len(threads)], delivered),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for service in {id(s): s for s in services}.values():
        service.shutdown()

    # Convergence gate: every subscriber's accumulated state (snapshot +
    # live tail) must equal the direct single-consumer settled relation.
    for position, cache in enumerate(caches):
        if settled_keys(cache.snapshot()) != reference_keys:
            raise AssertionError(
                f"subscriber {position} ({'shared' if shared else 'unshared'}, "
                f"N={subscribers}) diverged from the direct dataflow run: "
                f"{len(cache)} cached tuples vs {len(reference_keys)} settled"
            )
    total = sum(delivered)
    return {
        "mode": "shared" if shared else "unshared",
        "queries": num_queries,
        "subscribers": subscribers,
        "seconds": round(elapsed, 6),
        "delivered_elements": total,
        "delivered_per_second": round(total / elapsed, 1) if elapsed > 0 else float("inf"),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--sizes", default=None, help="comma-separated relation sizes (default 800)"
    )
    parser.add_argument(
        "--subscribers",
        default="1,2,4,8",
        help="comma-separated subscriber counts per query (default 1,2,4,8)",
    )
    parser.add_argument("--queries", type=int, default=2, help="standing queries Q")
    parser.add_argument("--disorder", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI smoke runs")
    parser.add_argument("--json-dir", default="bench_results")
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        sizes = [200]
        subscriber_counts = [1, 4]
    else:
        sizes = (
            [int(part) for part in arguments.sizes.split(",") if part.strip()]
            if arguments.sizes
            else [800]
        )
        subscriber_counts = [
            int(part) for part in arguments.subscribers.split(",") if part.strip()
        ]
    if arguments.queries < 2:
        parser.error("sharing needs --queries >= 2")

    cpus = available_cpus()
    print(
        f"cpu_count={cpus}  Q={arguments.queries}  sizes={sizes}  "
        f"subscribers={subscriber_counts}  disorder={arguments.disorder}"
    )
    records: List[dict] = []
    metrics: Dict[str, float] = {}
    shared_seconds: Dict[int, float] = {}
    for size in sizes:
        direct = run_direct(size, arguments.disorder, arguments.seed)
        print(
            f"size={size:>6}  direct single-consumer run: "
            f"{direct['outputs']} outputs in {direct['seconds']:.3f}s"
        )
        metrics[f"s{size}_outputs"] = direct["outputs"]
        metrics[f"s{size}_source_events"] = direct["source_events"]
        for count in subscriber_counts:
            row = {"size": size, "direct_seconds": round(direct["seconds"], 6)}
            for shared in (True, False):
                run = run_served(
                    size,
                    arguments.disorder,
                    arguments.seed,
                    arguments.queries,
                    count,
                    shared,
                    direct["keys"],
                )
                row[run["mode"]] = run
            shared_run, unshared_run = row["shared"], row["unshared"]
            ratio = (
                unshared_run["seconds"] / shared_run["seconds"]
                if shared_run["seconds"] > 0
                else float("inf")
            )
            row["unshared_vs_shared_ratio"] = round(ratio, 3)
            records.append(row)
            shared_seconds[count] = shared_run["seconds"]
            prefix = f"s{size}_n{count}"
            metrics[f"{prefix}_shared_seconds"] = shared_run["seconds"]
            metrics[f"{prefix}_unshared_seconds"] = unshared_run["seconds"]
            metrics[f"{prefix}_shared_delivered_per_second"] = shared_run[
                "delivered_per_second"
            ]
            metrics[f"{prefix}_unshared_vs_shared_ratio"] = row[
                "unshared_vs_shared_ratio"
            ]
            print(
                f"size={size:>6}  N={count:>2}  shared={shared_run['seconds']:.3f}s  "
                f"unshared={unshared_run['seconds']:.3f}s  "
                f"(unshared/shared {row['unshared_vs_shared_ratio']:.2f}x)  "
                f"delivered={shared_run['delivered_per_second']:.0f} el/s"
            )
    print("every subscriber converged to the direct single-consumer settled state")

    # Sublinearity of fan-out: N subscribers must cost well under N times
    # the single-subscriber shared run.  Smoke sizes are dominated by
    # thread start-up, so the gate records numbers without enforcing them.
    skipped_reason = None
    failures: List[str] = []
    base = shared_seconds.get(1)
    top = max(subscriber_counts)
    if base and top > 1:
        sublinearity = shared_seconds[top] / (base * top)
        # A cost, lower is better: "_rate" is the perf gate's must-not-rise
        # class ("_ratio" must not drop, which would fail an improvement).
        metrics[f"fanout_cost_vs_linear_n{top}_rate"] = round(sublinearity, 3)
        print(
            f"fan-out cost at N={top}: {sublinearity:.2f}x of linear "
            f"(sublinear < 1.0)"
        )
    if arguments.smoke:
        skipped_reason = (
            "smoke sizes measure start-up overhead, not steady-state "
            "fan-out cost; run default sizes for the gates"
        )
        print(f"SKIP fan-out gates: {skipped_reason}")
    else:
        if base and top > 1 and shared_seconds[top] >= base * top:
            failures.append(
                f"fan-out cost superlinear: t(N={top})={shared_seconds[top]:.3f}s "
                f">= {top} x t(1)={base:.3f}s"
            )
        for row in records:
            if row["unshared_vs_shared_ratio"] < 1.0:
                failures.append(
                    f"size={row['size']} N={row['shared']['subscribers']}: shared "
                    f"serving slower than unshared "
                    f"({row['unshared_vs_shared_ratio']:.2f}x)"
                )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    if arguments.json_dir:
        payload = bench_payload_base(
            "serving_fanout",
            "Serving fan-out: subscribers x shared-vs-unshared standing queries",
            seed=arguments.seed,
            skipped_reason=skipped_reason,
            metrics=metrics,
            queries=arguments.queries,
            disorder=arguments.disorder,
            subscriber_counts=subscriber_counts,
            measurements=records,
        )
        path = write_bench_file("serving_fanout", payload, arguments.json_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
