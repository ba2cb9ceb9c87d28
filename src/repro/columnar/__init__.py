"""Columnar (struct-of-arrays) window maintainer: a benchmark-only referee.

No run path imports this package: every continuous join keeps its window
state in :class:`repro.stream.incremental.IncrementalWindowMaintainer`.
tpbench's layer replay drives :class:`~repro.columnar.state.ColumnarWindowMaintainer`
on the same inputs to time it against the object maintainer (its
``columnar.state.*`` rows), and ``tests/columnar/test_state_parity.py``
keeps the two tuple-for-tuple equal; the package goes together with those
rows.

numpy is optional: importing this package never raises, and
:data:`HAS_NUMPY` tells callers whether the columnar maintainer can run.
"""

from __future__ import annotations

try:  # pragma: no cover - numpy is optional
    import numpy as _numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy is optional
    HAS_NUMPY = False

__all__ = ["HAS_NUMPY", "maintainer_class"]


def maintainer_class(layout: str):
    """The window maintainer behind ``"object"`` or ``"columnar"`` state."""
    if layout == "columnar":
        from .state import ColumnarWindowMaintainer

        return ColumnarWindowMaintainer
    if layout == "object":
        from ..stream.incremental import IncrementalWindowMaintainer

        return IncrementalWindowMaintainer
    raise ValueError(f"layout must be 'object' or 'columnar', got {layout!r}")
