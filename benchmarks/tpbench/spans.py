"""Benchmark-owned spans around the calls into each layer.

The program under test is not instrumented here: every span is opened by
benchmark code around a call into one layer's public functions.  A span is
``{id, name, start, end, parent, workload, seconds}``; ``start``/``end`` are
raw clock readings, ``seconds`` is the duration in reference-host seconds
(:mod:`hostspeed`), net of the calibration samples taken while it was open.
A layer's *self time* is its span's ``seconds`` minus its children's.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from hostspeed import HostSpeed


class SpanRecorder:
    """Collects the spans of one traced run of one workload."""

    def __init__(self, workload: str, speed: Optional[HostSpeed] = None) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self.speed = speed
        if speed is not None:
            speed.on_sample = self._pause

    def _pause(self, seconds: float) -> None:
        for record in self._stack:
            record["paused"] += seconds

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time a block as a child of the innermost open span."""
        if self.speed is not None:
            self.speed.sample(reuse_fresh=True)
        record = self._open(name, time.perf_counter())
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            factor = 1.0
            if self.speed is not None:
                self.speed.sample()
                factor = self.speed.factor(record["start"], record["end"])
            record["seconds"] = (
                record["end"] - record["start"] - record["paused"]
            ) / factor

    def add(self, name: str, seconds: float) -> dict:
        """Record ``seconds`` (reference-host) as a closed child of the open span.

        For costs measured elsewhere or summed over many short calls: the
        child is laid at the parent's start, which keeps the self-time
        arithmetic exact without one span per call.
        """
        start = self._stack[-1]["start"] if self._stack else time.perf_counter()
        record = self._open(name, start)
        record["end"] = start + seconds
        record["seconds"] = seconds
        return record

    def _open(self, name: str, start: float) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "paused": 0.0,
            "seconds": None,
        }
        self.spans.append(record)
        return record

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"workload": self.workload, "spans": self.spans}
        if self.speed is not None:
            document["calibration"] = {
                "times": self.speed.times,
                "kernel_ms": self.speed.readings,
            }
        path.write_text(json.dumps(document))


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span name: own seconds minus the children's seconds.

    Children are assumed not to overlap each other (the recorder is
    single-threaded), so the covered part is their sum, capped at the
    parent's own duration.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["seconds"]
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["seconds"] - min(span["seconds"], covered.get(span["id"], 0.0))
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def find(spans: List[dict], name: str) -> Optional[dict]:
    for span in spans:
        if span["name"] == name:
            return span
    return None
