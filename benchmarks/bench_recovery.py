"""Shard-failure recovery: recovery cost vs checkpoint interval.

A socket seat is SIGKILLed late in a continuous left-outer join run (via
the reusable chaos harness, ``repro.recovery.chaos``) and the driver
re-executes the shard on a fresh seat.  The benchmark measures what that
recovery costs under different checkpointing policies:

* ``from-zero`` — ``checkpoint_interval=None``: no snapshots, the
  replacement seat replays the shard's whole history;
* ``ckpt`` — ``checkpoint_interval=0.0``: a state snapshot ships at every
  micro-batch boundary, so the replacement restores the latest checkpoint
  and replays only the post-checkpoint suffix.

Every chaos run must settle tuple-for-tuple identical to the unfailed run
before any number is reported (the recovery correctness contract), and the
payload asserts that checkpointed recovery replayed *strictly fewer*
elements than replay-from-zero.  A failure-free run through the recovering
session is also measured against the plain socket session — the hot-path
overhead of buffering for replay (``hotpath_throughput_ratio``).

Results go to ``bench_results/BENCH_recovery.json``.  Run with::

    python benchmarks/bench_recovery.py              # default size
    python benchmarks/bench_recovery.py --smoke      # CI-sized
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from conftest import bench_payload_base

from repro import ExecutionOptions
from repro.datasets import ReplayConfig, stream_def
from repro.datasets.generators import generate_relation
from repro.datasets.meteo import meteo_config
from repro.engine import Catalog
from repro.harness.reporting import write_bench_file
from repro.lineage import EventSpace, canonical
from repro.recovery.chaos import ChaosInjector
from repro.runtime import available_cpus
from repro.stream import StreamQuery

ON = (("Metric", "Metric"),)


def build_catalog(size: int, disorder: int, seed: int) -> Catalog:
    """One Meteo-like stream pair over a shared event space."""
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


def settled_rows(relation) -> List[str]:
    """Bitwise referee: fact, canonical lineage, interval, probability."""
    return sorted(
        repr((t.fact, str(canonical(t.lineage)), t.start, t.end, t.probability))
        for t in relation
    )


def run_once(
    size: int,
    disorder: int,
    seed: int,
    partitions: int,
    *,
    restart_limit: int,
    checkpoint_interval: Optional[float],
    kill_after: Optional[int],
) -> tuple[dict, List[str]]:
    """One measured socket run, optionally killing a seat mid-stream."""
    catalog = build_catalog(size, disorder, seed)
    options = ExecutionOptions(
        transport="sockets",
        partitions=partitions,
        micro_batch_size=16,
        restart_limit=restart_limit,
        checkpoint_interval=checkpoint_interval,
    )
    # With checkpointing on, hold the kill until a checkpoint frame has
    # actually reached the driver: this measures suffix replay, not the
    # (also correct) from-zero fallback a too-early kill would trigger.
    chaos = (
        ChaosInjector(
            [(kill_after, 1)],
            wait_for_checkpoint=checkpoint_interval is not None,
        )
        if kill_after
        else None
    )
    query = StreamQuery(catalog, "left_outer", "r", "s", ON, config=options)
    result = query.run(merge_seed=seed, chaos=chaos)
    if result.workers != "sockets":
        raise AssertionError(
            f"socket run fell back to {result.workers!r}; recovery numbers "
            "would be meaningless"
        )
    events = result.recoveries()
    if chaos is not None and len(events) != 1:
        raise AssertionError(
            f"expected exactly one recovery, saw {len(events)} "
            f"(kills signalled: {chaos.kills_signalled})"
        )
    record = {
        "checkpoint_interval": checkpoint_interval,
        "seconds": round(result.elapsed_seconds, 6),
        "events": result.events_processed,
        "outputs": result.outputs_emitted,
        "events_per_second": round(result.events_per_second, 1),
        "recoveries": [
            {
                "seat": event.seat,
                "cause": event.cause,
                "checkpoint_elements": event.checkpoint_elements,
                "elements_replayed": event.elements_replayed,
                "recovery_seconds": round(event.recovery_seconds, 6),
            }
            for event in events
        ],
    }
    return record, settled_rows(result.relation)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=None, help="tuples per relation")
    parser.add_argument("--disorder", type=int, default=4)
    parser.add_argument("--partitions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny size for CI smoke runs")
    parser.add_argument("--json-dir", default="bench_results")
    arguments = parser.parse_args(argv)

    size = arguments.size or (150 if arguments.smoke else 600)
    events_total = 2 * size
    # Kill late: the difference between replaying everything and replaying a
    # checkpointed suffix is largest near the end of the stream.
    kill_after = int(events_total * 0.8)
    print(
        f"cpu_count={available_cpus()}  size={size}  disorder={arguments.disorder}  "
        f"partitions={arguments.partitions}  kill_after={kill_after}"
    )

    # The referee: an unfailed run on the plain (non-recovering) session.
    plain, baseline_rows = run_once(
        size, arguments.disorder, arguments.seed, arguments.partitions,
        restart_limit=0, checkpoint_interval=None, kill_after=None,
    )
    print(
        f"plain session      {plain['events_per_second']:>9.0f} ev/s  "
        f"({plain['outputs']} outputs)"
    )

    # Hot path through the recovering session, no failures injected.
    hot, hot_rows = run_once(
        size, arguments.disorder, arguments.seed, arguments.partitions,
        restart_limit=2, checkpoint_interval=None, kill_after=None,
    )
    if hot_rows != baseline_rows:
        print("FAIL: recovering session changed the settled output on the hot path")
        return 1
    hotpath_ratio = round(
        hot["events_per_second"] / plain["events_per_second"], 3
    )
    print(
        f"recovering session {hot['events_per_second']:>9.0f} ev/s  "
        f"(hot-path ratio {hotpath_ratio:.2f}x)"
    )

    # One late SIGKILL under each checkpointing policy.
    runs = {}
    for label, interval in (("fromzero", None), ("ckpt", 0.0)):
        record, rows = run_once(
            size, arguments.disorder, arguments.seed, arguments.partitions,
            restart_limit=2, checkpoint_interval=interval, kill_after=kill_after,
        )
        if rows != baseline_rows:
            print(f"FAIL: {label} recovery diverged from the unfailed run")
            return 1
        runs[label] = record
        (recovery,) = record["recoveries"]
        print(
            f"{label:<9} kill@{kill_after}: restored "
            f"checkpoint@{recovery['checkpoint_elements']}, replayed "
            f"{recovery['elements_replayed']} element(s) in "
            f"{recovery['recovery_seconds']:.3f}s"
        )

    fromzero = runs["fromzero"]["recoveries"][0]
    ckpt = runs["ckpt"]["recoveries"][0]
    # The point of checkpointing: strictly fewer elements cross the wire
    # again.  Asserted here and recorded in the payload.
    checkpoint_replays_fewer = (
        ckpt["elements_replayed"] < fromzero["elements_replayed"]
    )
    if not checkpoint_replays_fewer:
        print(
            f"FAIL: checkpointed recovery replayed {ckpt['elements_replayed']} "
            f"element(s), from-zero replayed {fromzero['elements_replayed']}"
        )
        return 1
    if ckpt["checkpoint_elements"] <= 0:
        print("FAIL: checkpointed recovery restored an empty checkpoint")
        return 1
    print("all chaos runs settled bitwise identical to the unfailed run")

    metrics = {
        # Deterministic given the seed: gated exactly.
        "settled_outputs": plain["outputs"],
        "ingested_events": plain["events"],
        # Relative figure, machine-shape independent: gated with the ratio band.
        "hotpath_throughput_ratio": hotpath_ratio,
        # Recovery figures depend on *when* the kill lands relative to
        # micro-batch flushes, so they are informational (no gating suffix).
        "fromzero_replayed": fromzero["elements_replayed"],
        "ckpt_replayed": ckpt["elements_replayed"],
        "ckpt_checkpoint_elements": ckpt["checkpoint_elements"],
        "fromzero_recovery_secs": fromzero["recovery_seconds"],
        "ckpt_recovery_secs": ckpt["recovery_seconds"],
    }
    if arguments.json_dir:
        payload = bench_payload_base(
            "recovery",
            "Shard-failure recovery: recovery cost vs checkpoint interval",
            seed=arguments.seed,
            metrics=metrics,
            partitions=arguments.partitions,
            size=size,
            kill_after=kill_after,
            checkpoint_replays_fewer=checkpoint_replays_fewer,
            measurements={"plain": plain, "hotpath": hot, **runs},
        )
        path = write_bench_file("recovery", payload, arguments.json_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
