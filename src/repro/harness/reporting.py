"""Formatting of harness measurements.

The harness prints, for every figure, the same series the paper plots —
runtime per input size per approach — plus the NJ-vs-TA speedup factors so
the "shape" claims of the paper (who wins, by roughly how much) can be read
off directly.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

from .experiments import ExperimentSpec, Measurement


def measurements_table(measurements: Sequence[Measurement]) -> str:
    """Render measurements as a fixed-width table (size × series runtimes).

    Beside each runtime stand the collector's milliseconds within it and
    its full (generation-2) collections.
    """
    if not measurements:
        return "(no measurements)"
    series_names = _series_order(measurements)
    by_size: dict[int, dict[str, Measurement]] = defaultdict(dict)
    for measurement in measurements:
        by_size[measurement.size][measurement.series] = measurement

    header = ["size"]
    for name in series_names:
        header += [f"{name} [ms]", f"{name} gc [ms]", f"{name} gen2"]
    header += [f"{name} windows" for name in series_names]
    rows: list[list[str]] = []
    for size in sorted(by_size):
        row = [str(size)]
        for name in series_names:
            cell = by_size[size].get(name)
            row += ["-"] * 3 if cell is None else [
                f"{cell.seconds * 1000:.1f}", f"{cell.collector_ms:.1f}", str(cell.gen2_collections)
            ]
        for name in series_names:
            cell = by_size[size].get(name)
            row.append("-" if cell is None else str(cell.output_count))
        rows.append(row)
    return _fixed_width(header, rows)


def speedup_summary(measurements: Sequence[Measurement], baseline: str = "TA") -> str:
    """Render NJ-vs-baseline speedup factors per size and series."""
    series_names = [name for name in _series_order(measurements) if name != baseline]
    by_size: dict[int, dict[str, Measurement]] = defaultdict(dict)
    for measurement in measurements:
        by_size[measurement.size][measurement.series] = measurement

    header = ["size", *(f"{baseline}/{name}" for name in series_names)]
    rows: list[list[str]] = []
    for size in sorted(by_size):
        base = by_size[size].get(baseline)
        row = [str(size)]
        for name in series_names:
            cell = by_size[size].get(name)
            if base is None or cell is None or cell.seconds == 0:
                row.append("-")
            else:
                row.append(f"{base.seconds / cell.seconds:.1f}x")
        rows.append(row)
    return _fixed_width(header, rows)


def experiment_report(spec: ExperimentSpec, measurements: Sequence[Measurement]) -> str:
    """The full text block printed for one experiment."""
    lines = [
        f"== {spec.experiment_id}: {spec.title} ==",
        f"dataset: {spec.dataset} (synthetic stand-in)",
        f"expected shape (paper): {spec.expected_shape}",
        "",
        measurements_table(measurements),
        "",
        "speedups (baseline runtime / series runtime):",
        speedup_summary(measurements),
    ]
    return "\n".join(lines)


def write_csv(measurements: Iterable[Measurement], path: str | Path) -> None:
    """Write measurements to a CSV file for downstream plotting."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "experiment", "dataset", "series", "size", "seconds", "output_count",
            "collector_ms", "gen2_collections",
        ])
        for measurement in measurements:
            writer.writerow(
                [
                    measurement.experiment,
                    measurement.dataset,
                    measurement.series,
                    measurement.size,
                    f"{measurement.seconds:.6f}",
                    measurement.output_count,
                    f"{measurement.collector_ms:.3f}",
                    measurement.gen2_collections,
                ]
            )


# --------------------------------------------------------------------------- #
# machine-readable results
# --------------------------------------------------------------------------- #
def bench_payload(
    spec: ExperimentSpec, measurements: Sequence[Measurement], seed: int = 0
) -> dict:
    """The JSON payload written for one experiment's measurements.

    ``seed`` is the workload-generator seed the run used; recording it makes
    every ``BENCH_*.json`` self-reproducing (re-run the same experiment with
    the recorded seed and sizes to regenerate the identical workload).
    ``cpu_count`` and ``environment`` say what the seconds were measured on,
    ``collector_ms`` and ``gen2_collections`` how much of them was the
    cyclic collector.
    """
    return {
        "experiment": spec.experiment_id,
        "title": spec.title,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "environment": environment_info(),
        "dataset": spec.dataset,
        "expected_shape": spec.expected_shape,
        "measurements": [
            {
                "series": m.series,
                "size": m.size,
                "seconds": round(m.seconds, 6),
                "output_count": m.output_count,
                "collector_ms": round(m.collector_ms, 3),
                "gen2_collections": m.gen2_collections,
            }
            for m in measurements
        ],
    }


def environment_info() -> dict:
    """The runtime environment recorded alongside every BENCH file."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def write_bench_json(
    spec: ExperimentSpec,
    measurements: Sequence[Measurement],
    directory: str | Path,
    seed: int = 0,
) -> Path:
    """Write one experiment's measurements as ``BENCH_<experiment>.json``.

    The fixed prefix and stable key order make the files greppable and
    diffable from one run to the next.
    """
    destination = Path(directory) / f"BENCH_{spec.experiment_id}.json"
    destination.parent.mkdir(parents=True, exist_ok=True)
    payload = bench_payload(spec, measurements, seed=seed)
    with destination.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return destination


def _series_order(measurements: Sequence[Measurement]) -> list[str]:
    order: list[str] = []
    for measurement in measurements:
        if measurement.series not in order:
            order.append(measurement.series)
    return order


def _fixed_width(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].rjust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)
