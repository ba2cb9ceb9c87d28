"""Columnar (struct-of-arrays) hot path for the streaming engine.

The per-tuple object hot path keeps every open positive and indexed
negative as Python objects and probes them with interpreted loops — the
engine's throughput ceiling.  This package re-lays the window-maintainer
state as per-key struct-of-arrays numpy blocks (int64 interval columns,
boolean alive masks, row-aligned payload lists) and vectorizes the two
dominant sweeps of the paper's incremental join:

* **interval-overlap probing** — one boolean-mask reduction over the
  negative (or open-positive) columns instead of a per-tuple Python loop;
* **bounded-lateness eviction** — watermark horizons applied as boolean
  masks with amortized compaction, instead of per-bucket list rebuilds.

Probabilities are evaluated exactly as on the object layout, through the
maintainer's per-key :class:`~repro.lineage.ProbabilityComputer`.

The object layout remains first-class: it is the referee every columnar
run must match tuple-for-tuple with bitwise-identical probabilities, and
the automatic fallback when numpy is not installed.  Select a layout with
``ExecutionOptions(layout="columnar")`` (default ``"object"``).

numpy is an *optional* dependency: importing this package never raises,
and :func:`resolve_layout` degrades a columnar request to the object
layout with a :class:`RuntimeWarning` when numpy is missing — the same
degrade-loudly idiom the transports use when workers cannot start.
"""

from __future__ import annotations

import warnings

try:  # pragma: no cover - exercised by the numpy-less CI leg
    import numpy as _numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the numpy-less CI leg
    HAS_NUMPY = False

__all__ = [
    "HAS_NUMPY",
    "LAYOUTS",
    "maintainer_class",
    "resolve_layout",
]

#: Valid values of ``ExecutionOptions.layout``.
LAYOUTS = ("object", "columnar")


def resolve_layout(layout: str) -> str:
    """The layout a run will actually use, degrading loudly without numpy.

    Resolution happens once, driver-side, before worker specs are built —
    the resolved layout travels in the spec, so workers never re-decide.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if layout == "columnar" and not HAS_NUMPY:
        warnings.warn(
            "layout='columnar' requires numpy, which is not installed; "
            "falling back to the object layout",
            RuntimeWarning,
            stacklevel=2,
        )
        return "object"
    return layout


def maintainer_class(layout: str):
    """The window-maintainer implementation behind one resolved layout."""
    if layout == "columnar":
        from .state import ColumnarWindowMaintainer

        return ColumnarWindowMaintainer
    if layout == "object":
        from ..stream.incremental import IncrementalWindowMaintainer

        return IncrementalWindowMaintainer
    raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
