"""Command-line entry point of the experiment harness.

Examples::

    python -m repro.harness fig5
    python -m repro.harness fig7 --sizes 250,500,1000
    python -m repro.harness all --csv results.csv
    python -m repro.harness fig6a --paper-scale      # original 40K-200K sizes
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .reporting import write_bench_json, write_csv
from .runner import run_by_name


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid size list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The harness argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Re-run the experiments of the paper's evaluation section.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig5a, fig5b, fig6a, fig6b, fig7a, fig7b) or group (fig5, fig6, fig7, all)",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=None,
        help="comma-separated input sizes, e.g. 1000,2000,4000 (defaults per experiment)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload generator seed")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's original input sizes (40K-200K tuples; slow, "
        "as every series runs three times per size)",
    )
    parser.add_argument("--csv", default=None, help="also write measurements to this CSV file")
    parser.add_argument(
        "--json-dir",
        default="bench_results",
        help="directory for machine-readable BENCH_<experiment>.json files "
        "(default: bench_results; pass an empty string to disable)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the harness; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        results = run_by_name(
            arguments.experiment,
            sizes=arguments.sizes,
            seed=arguments.seed,
            paper_scale=arguments.paper_scale,
        )
    except KeyError as error:
        parser.error(str(error))
        return 2
    all_measurements = []
    for result in results:
        print(result.report)
        print()
        all_measurements.extend(result.measurements)
        if arguments.json_dir:
            path = write_bench_json(
                result.spec, result.measurements, arguments.json_dir, seed=result.seed
            )
            print(f"wrote {path}")
    if arguments.csv:
        write_csv(all_measurements, arguments.csv)
        print(f"wrote {len(all_measurements)} measurements to {arguments.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
