"""One workload in one fresh process: set up, verify, measure, report.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  The last line of standard output
is one JSON report; ``run.py`` turns it into the contract's result line.
Run with ``-W error::DeprecationWarning`` so that only the
``ExecutionOptions`` surface is used.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Passes measured at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Untraced passes a traced run times first: the base of its ratios.
UNTRACED_PASSES = 5
#: Ceiling on passes, so a pass that fails instantly cannot spin.
MAX_PASSES = 400


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pin_to_one_cpu() -> None:
    """Stay on the CPU this process is on now (see ``Workload.one_cpu``)."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[0]})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: run unpinned


def reap_children() -> None:
    """No worker process may outlive the run, on any exit path."""
    for process in multiprocessing.active_children():
        process.terminate()
    for process in multiprocessing.active_children():
        process.join(5.0)
        if process.is_alive():
            process.kill()
            process.join(5.0)


class Run:
    """Pass bookkeeping shared by the end-to-end and the traced run.

    Pass times and latencies are kept in reference-host seconds: each pass
    is bracketed by calibration samples and divided by its host factor.
    """

    def __init__(self, workload, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.frozen_counts = None
        self.pass_seconds: List[float] = []
        self.wall_seconds: List[float] = []
        self.rates: List[float] = []
        self.latencies: List[List[float]] = []
        self.last_outcome = None
        self.detail: Dict[str, float] = {}

    def one_pass(self, timed: bool) -> None:
        """Run, time and judge one pass; only timed passes count as attempts."""
        workload = self.workload
        gc.collect()
        self.speed.sample(reuse_fresh=True)
        try:
            started = time.perf_counter()
            outcome = workload.run_pass()
            ended = time.perf_counter()
            self.speed.sample()
            operations = workload.operations(outcome)
            failed = workload.failed_operations(outcome)
            counts = workload.counts(outcome)
        except Exception:  # noqa: BLE001 - a failed pass is a counted failure
            self.errors.append(traceback.format_exc())
            if timed:
                self.attempted += 1
                self.failed += 1
            else:
                raise
            return
        if self.frozen_counts is None:
            self.frozen_counts = counts
        elif counts != self.frozen_counts:
            self.errors.append(f"counts changed: {counts} != {self.frozen_counts}")
            failed = max(failed, 1)
        if not timed:
            if failed:
                raise AssertionError(
                    f"warm-up pass of {workload.name} differs from the reference"
                )
            return
        self.attempted += operations
        self.failed += failed
        if failed:
            self.errors.append(f"pass {len(self.pass_seconds)} differs from the reference")
            return
        # Only a verified pass contributes numbers.
        factor = self.speed.factor(started, ended)
        seconds = (ended - started) / factor
        self.wall_seconds.append(ended - started)
        self.pass_seconds.append(seconds)
        self.rates.append(outcome.events / seconds)
        self.latencies.append([value / factor for value in outcome.latencies])
        self.last_outcome = outcome


def end_to_end(run: Run, seconds: float, min_passes: int) -> Dict[str, float]:
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MAX_PASSES and (
        passes < min_passes or time.perf_counter() < deadline
    ):
        run.one_pass(timed=True)
        passes += 1
    if not run.rates:
        return {}
    latency = run.workload.summarize_latency(run.latencies)
    latency["wall_events_per_s"] = median(
        run.last_outcome.events / seconds for seconds in run.wall_seconds
    )
    run.detail = latency
    return {
        "events_per_s": median(run.rates),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p99_ms": latency["p99_ms"],
    }


def traced(run: Run) -> Dict[str, float]:
    """A few untraced passes for the base line, then the layer replay."""
    from layers import ReplayMismatch, trace

    for _ in range(UNTRACED_PASSES):
        run.one_pass(timed=True)
    if len(run.pass_seconds) < UNTRACED_PASSES:
        return {}
    try:
        ledger = trace(
            run.workload, run.speed, median(run.pass_seconds), run.last_outcome
        )
    except ReplayMismatch:
        run.errors.append(traceback.format_exc())
        run.attempted += 1
        run.failed += 1
        return {}
    run.attempted += ledger.attempted_operations
    run.failed += ledger.failed_operations
    ledger.recorder.write(OUT / f"trace-{run.workload.name}.json")
    return ledger.metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--setup-only", action="store_true")
    arguments = parser.parse_args(argv)

    speed = HostSpeed()
    speed.sample()
    from workloads import WORKLOADS

    workload = WORKLOADS[arguments.workload](arguments.seed, arguments.scale)
    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": arguments.seed,
        "trace": arguments.trace,
        "correct": False,
    }
    run = Run(workload, speed)
    if workload.one_cpu:
        pin_to_one_cpu()
    try:
        workload.setup()
        # Wall clock, not reference-host seconds: over half of set-up is
        # process start-up and file reads, which do not move with the CPU
        # speed state, so dividing by the host factor over-corrects (between
        # the two states it read -17 %, where the wall clock reads +10 %).
        report["setup_s"] = time.time() - arguments.spawned_at
        if arguments.setup_only:
            report["correct"] = True
            return 0
        gc.collect()
        gc.freeze()
        workload.reference()
        run.one_pass(timed=False)
        if arguments.trace:
            metrics = traced(run)
        else:
            metrics = end_to_end(run, arguments.seconds, arguments.min_passes)
        report.update(
            metrics=metrics,
            correct=bool(metrics) and run.failed == 0,
            counts=run.frozen_counts,
            pass_seconds=run.pass_seconds,
            detail=run.detail,
            calibration_ms=[min(speed.readings), speed.mean_ms(), max(speed.readings)],
        )
    except Exception:  # noqa: BLE001 - reported, then the run counts as failed
        run.errors.append(traceback.format_exc())
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
    finally:
        try:
            workload.close()
        except Exception:  # noqa: BLE001 - closing must not mask the report
            run.errors.append(traceback.format_exc())
        reap_children()
        # After close(): a seat's peak only counts once it has been waited for.
        if report.get("metrics") and not arguments.trace:
            report["metrics"]["peak_rss_mb"] = peak_rss_mb()
        report.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
        for error in run.errors:
            print(error, file=sys.stderr)
        print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
