"""tpbench: the benchmark of record for the TP join engine.

One command prints every metric by name with its unit, after checking every
result against a reference::

    python3 benchmarks/tpbench/run.py                       # all workloads
    python3 benchmarks/tpbench/run.py --workload batch-nj --seed 7
    python3 benchmarks/tpbench/run.py --workload stream-inorder --trace 1
    python3 benchmarks/tpbench/run.py --quick               # smoke, <1 min
    python3 benchmarks/tpbench/run.py --check-agreement     # two sets, PASS/FAIL

Each workload runs in a fresh child process (``child.py``) with a hard
timeout; with one ``--workload`` the last line of standard output is the
result object ``BENCHMARK.json``'s contract asks for.  Metric names, units,
directions and bounds are read from ``BENCHMARK.json``, so what is printed
and what is declared cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from stats import quartiles, relative_worsening  # noqa: E402

#: Hard limits, seconds: the contract allows one run 180 in all.
RUN_TIMEOUT = 165.0
PROBE_TIMEOUT = 20.0
#: Extra fresh processes that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 4
QUICK_SCALE = 0.1
#: Per-layer readings that are counts of the input, not of the schedule:
#: they must repeat exactly between two runs of one seed.
EXACT_LAYER_COUNTS = (
    "core.overlap.groups",
    "core.windows.count",
    "runtime.wire.bytes_per_event",
    "stream.source.late_dropped",
    "stream.incremental.negatives_evicted",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself is broken (not: the program is slow or wrong)."""


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_command(workload: str, seed: int, extra: List[str]) -> List[str]:
    return [
        sys.executable,
        "-W",
        "error::DeprecationWarning",
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--spawned-at",
        repr(time.time()),
        *extra,
    ]


def run_child(command: List[str], timeout: float) -> Optional[dict]:
    """Run one child in its own process group; ``None`` on hang or crash.

    The whole group is killed afterwards on every path, so no worker
    process a transport spawned can outlive its run.
    """
    source = ROOT / "src"
    if not source.is_dir():
        raise BenchmarkError(f"program source not found at {source}")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(source), str(HERE), environment.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=environment,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        output = ""
        print(f"tpbench: child exceeded {timeout:.0f}s, killed", file=sys.stderr)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = output.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def measure(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> dict:
    """One run of one workload: the contract's result object plus detail."""
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    if quick:
        extra += ["--scale", repr(QUICK_SCALE), "--min-passes", "2"]
    deadline = time.monotonic() + RUN_TIMEOUT
    setups: List[float] = []
    if not trace:
        for _ in range(1 if quick else SETUP_PROBES):
            probe = run_child(
                child_command(workload, seed, extra + ["--setup-only"]), PROBE_TIMEOUT
            )
            if probe and probe.get("correct"):
                setups.append(probe["setup_s"])
    report = run_child(
        child_command(workload, seed, extra), max(1.0, deadline - time.monotonic())
    )
    if report is None:
        report = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if "setup_s" in report:
        setups.append(report["setup_s"])
    report["setups"] = setups
    return report


def result_object(report: dict, declared: dict, trace: int) -> dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    wanted = declared["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    measured = dict(report.get("metrics") or {})
    if not trace and measured and report["setups"]:
        measured["setup_s"] = median(report["setups"])
    metrics = {}
    if measured and report.get("correct"):
        undeclared = sorted(name for name in measured if name not in units)
        if undeclared:
            raise BenchmarkError(f"metrics not declared in BENCHMARK.json: {undeclared}")
        for name, unit in units.items():
            if trace:
                # 0 = this workload does no work in that layer.
                value = measured.get(name, 0.0)
            elif name not in measured:
                raise BenchmarkError(f"declared metric {name} was not measured")
            else:
                value = measured[name]
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(report.get("correct")) and bool(metrics),
        "attempted": max(1, int(report.get("attempted", 1))),
        "failed": int(report.get("failed", 1)),
        "metrics": metrics,
    }


def describe(workload: str, report: dict, result: dict, quick: bool) -> None:
    """Every metric by name with its unit, and the samples behind it."""
    note = "  [--quick: NOT COMPARABLE]" if quick else ""
    print(f"== {workload}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"   operations attempted {attempted}, failed {failed} "
        f"(failed_share {failed / attempted:.4f}); correct: {result['correct']}"
    )
    detail = report.get("detail") or {}
    for name, metric in result["metrics"].items():
        line = f"   {name:<46} {metric['value']:>16.6f} {metric['unit']}"
        if name == "setup_s":
            q1, _q2, q3 = quartiles(report["setups"])
            line += f"   (n={len(report['setups'])}, q1 {q1:.4f}, q3 {q3:.4f}; wall clock)"
        elif name == "events_per_s":
            rates = [
                1.0 / seconds for seconds in report.get("pass_seconds", []) if seconds
            ]
            if len(rates) > 1:
                q1, q2, q3 = quartiles(rates)
                line += (
                    f"   (passes {len(rates)}, q1/q3 {q1 / q2:.3f}/{q3 / q2:.3f} of "
                    f"median; wall {detail.get('wall_events_per_s', 0.0):.1f})"
                )
        elif name == "latency_p99_ms":
            line += (
                f"   (samples {detail.get('samples', 0):.0f}, "
                f"percentile used {detail.get('tail_rank', 0):g})"
            )
        print(line)
    if report.get("counts"):
        shown = {
            key: value[:12] if isinstance(value, str) else value
            for key, value in report["counts"].items()
        }
        print(f"   counts {json.dumps(shown, sort_keys=True)}")
    if report.get("calibration_ms"):
        low, mean, high = report["calibration_ms"]
        print(f"   host.calibration_ms min {low:.2f} mean {mean:.2f} max {high:.2f}")
    for error in report.get("errors") or ():
        print(f"   error: {error.strip().splitlines()[-1]}")


def run_suite(arguments, declared: dict, trace: int) -> Dict[str, tuple]:
    reports = {}
    for workload in arguments.workload:
        report = measure(workload, arguments.seed, arguments.seconds, trace, arguments.quick)
        result = result_object(report, declared, trace)
        describe(workload, report, result, arguments.quick)
        print(json.dumps(result), flush=True)
        reports[workload] = (report, result)
    return reports


def check_agreement(arguments, declared: dict) -> bool:
    """Two sets of runs of one tree: medians within bounds, counts identical."""
    sets = []
    for index in range(2):
        print(f"#### set {index + 1}: end to end")
        end_to_end = run_suite(arguments, declared, trace=0)
        print(f"#### set {index + 1}: per layer")
        per_layer = run_suite(arguments, declared, trace=1)
        sets.append((end_to_end, per_layer))
    agreed = True
    print("#### agreement")
    for workload in arguments.workload:
        first, second = (sets[index][0][workload] for index in range(2))
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [
                run[1]["metrics"].get(name, {}).get("value") for run in (first, second)
            ]
            if None in values:
                verdict, gap = "FAIL (no result)", float("nan")
            else:
                gap = relative_worsening(values[0], values[1], metric["better"])
                verdict = "PASS" if abs(gap) <= metric["bound"] else "FAIL"
            agreed &= verdict == "PASS"
            print(
                f"   {workload:<16} {name:<16} {values[0]!s:>20} {values[1]!s:>20} "
                f"gap {gap:+.4f} bound {metric['bound']} {verdict}"
            )
        counts = [run[0].get("counts") for run in (first, second)]
        layers = [
            {
                name: sets[index][1][workload][1]["metrics"].get(name, {}).get("value")
                for name in EXACT_LAYER_COUNTS
            }
            for index in range(2)
        ]
        same = counts[0] == counts[1] and layers[0] == layers[1] and counts[0] is not None
        agreed &= same
        print(f"   {workload:<16} exact counts {'identical' if same else 'DIFFER'}")
        calibrations = [run[0].get("calibration_ms") for run in (first, second)]
        print(f"   {workload:<16} host.calibration_ms {calibrations[0]} / {calibrations[1]}")
    print("agreement: " + ("PASS" if agreed else "FAIL"))
    return agreed


def main(argv=None) -> int:
    declared = load_declaration()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="1/10 sizes, 2 passes")
    parser.add_argument("--check-agreement", action="store_true")
    arguments = parser.parse_args(argv)
    arguments.workload = arguments.workload or names
    if arguments.quick:
        arguments.seconds = 0.0
    if arguments.check_agreement:
        return 0 if check_agreement(arguments, declared) else 1
    reports = run_suite(arguments, declared, arguments.trace)
    # A result line was printed for every workload; a run that produced no
    # metrics at all (hang, crash) is an error of the run, not a result.
    return 0 if all(result["metrics"] for _report, result in reports.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, FileNotFoundError) as error:
        print(f"tpbench: {error}", file=sys.stderr)
        sys.exit(2)
