"""A worker spec that reports the collector state of the process it ran in.

Importable as ``tests.runtime.gc_probe`` by a ``--listen`` seat started
from the repository root (the seat unpickles the spec there), so a test
can read the seat's ``gc.get_stats()`` through the job's report.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.dataflow.compile import DataflowNodeSpec


def _reading() -> tuple:
    return (
        gc.isenabled(),
        tuple(generation["collections"] for generation in gc.get_stats()),
        gc.get_freeze_count(),
    )


@dataclass(frozen=True)
class GcProbeSpec(DataflowNodeSpec):
    """The wrapped spec, whose report's ``stats`` is ``(reading at job
    start, reading at job end)``; a reading is ``(gc.isenabled(),
    collections per generation, gc.get_freeze_count())``."""

    def build_join(self):
        join = super().build_join()
        join.gc_at_start = _reading()
        return join

    def report(self, join):
        report = super().report(join)
        report.stats = (join.gc_at_start, _reading())
        return report


def probed(spec: DataflowNodeSpec) -> GcProbeSpec:
    """``spec`` as a :class:`GcProbeSpec`."""
    return GcProbeSpec(**{name: getattr(spec, name) for name in spec.__dataclass_fields__})

