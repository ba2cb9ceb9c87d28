"""Low-overhead metrics primitives: counters, gauges, histograms, registries.

Every worker owns one :class:`MetricsRegistry`; instruments are plain
attribute-increment objects (no locks — each registry is touched by one
worker thread, and snapshots read immutable ints/floats which is safe
under the GIL).  A registry's :meth:`MetricsRegistry.snapshot` is a plain
dict of builtins, so it pickles through the runtime codecs and serialises
to JSON for the NDJSON serve front end without any custom hooks.

Workers keep their flow counts as plain ints whether or not metrics are
on; a registry exists only when they are, and is where those counts and the
operator state are sampled into at snapshot time — nothing on the
per-element path touches it.

The driver side is :class:`MetricsAggregator`: it merges labelled
snapshots from every worker (whatever transport delivered them) into a
coherent view — per-node totals, load skew, an ``EXPLAIN ANALYZE``-style
text report, and a Prometheus text exposition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsAggregator",
    "registry_for_spec",
    "DEFAULT_BUCKETS",
    "DEFAULT_METRICS_INTERVAL",
]

#: Default histogram bucket upper bounds (element counts: micro-batch
#: sizes, ring depths).  Powers of two up to the default channel batch cap.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Seconds between periodic telemetry shipments (metrics snapshots and
#: trace-span flushes) from a running worker to the driver.  The single
#: authority for the default every transport signature reuses.
DEFAULT_METRICS_INTERVAL = 0.25

#: Gauges merged with ``min`` across workers instead of ``max`` — a
#: stage's effective watermark/frontier is the slowest partition's.
_MIN_MERGED_GAUGES = frozenset({"watermark", "frontier"})


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, watermark, lag)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: cumulative-style buckets plus count/total.

    ``buckets[i]`` counts observations ``<= bounds[i]``; the final slot
    counts overflow.  Bounds are few (single digits), so a linear scan
    beats bisect for the hot path.
    """

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1


class MetricsRegistry:
    """One worker's instruments, keyed by metric name, tagged with labels."""

    __slots__ = ("labels", "_counters", "_gauges", "_histograms")

    def __init__(self, **labels) -> None:
        self.labels: Dict[str, str] = {
            key: str(value) for key, value in labels.items() if value is not None
        }
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def set_counter(self, name: str, value: int) -> None:
        """Overwrite a counter from an authoritative source (stats object)."""
        self.counter(name).value = int(value)

    def snapshot(self) -> dict:
        """A picklable/JSON-able copy of every instrument."""
        return {
            "labels": dict(self.labels),
            "counters": {
                name: instrument.value
                for name, instrument in self._counters.items()
            },
            "gauges": {
                name: instrument.value for name, instrument in self._gauges.items()
            },
            "histograms": {
                name: {
                    "bounds": list(instrument.bounds),
                    "buckets": list(instrument.buckets),
                    "count": instrument.count,
                    "total": instrument.total,
                }
                for name, instrument in self._histograms.items()
            },
        }


def registry_for_spec(spec) -> MetricsRegistry:
    """Build a worker registry labelled from a runtime worker spec.

    Labels come from the one worker spec
    (:class:`~repro.dataflow.compile.DataflowNodeSpec`): its ``index``,
    node ``name``, ``kind`` and ``partition``.  Missing attributes are
    simply omitted as labels.
    """
    index = getattr(spec, "index", None)
    partition = getattr(spec, "partition", None)
    return MetricsRegistry(
        worker=index,
        node=getattr(spec, "name", None),
        kind=getattr(spec, "kind", None),
        partition=partition if partition is not None else index,
    )


def _merge_counters(target: Dict[str, int], counters: Mapping[str, int]) -> None:
    for name, value in counters.items():
        target[name] = target.get(name, 0) + int(value)


def _merge_gauge(target: Dict[str, float], name: str, value: float) -> None:
    if name in _MIN_MERGED_GAUGES:
        previous = target.get(name)
        target[name] = value if previous is None else min(previous, value)
    else:
        previous = target.get(name)
        target[name] = value if previous is None else max(previous, value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsAggregator:
    """Driver-side merge of per-worker snapshots into one labelled view.

    Snapshots are keyed by their ``worker`` label: a later snapshot from
    the same worker *replaces* the earlier one (workers report running
    totals, not deltas), so feeding periodic snapshots plus the final
    report never double-counts.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[str, dict] = {}

    # -- ingestion ---------------------------------------------------------

    def update(self, snapshot: Optional[dict]) -> None:
        if not snapshot:
            return
        labels = snapshot.get("labels", {})
        key = str(labels.get("worker", len(self._snapshots)))
        self._snapshots[key] = snapshot

    def update_all(self, snapshots: Iterable[Optional[dict]]) -> None:
        for snapshot in snapshots:
            self.update(snapshot)

    # -- structured access -------------------------------------------------

    def snapshots(self) -> List[dict]:
        return [self._snapshots[key] for key in sorted(self._snapshots)]

    def totals(self) -> Dict[str, int]:
        """All counters summed across workers."""
        merged: Dict[str, int] = {}
        for snapshot in self._snapshots.values():
            _merge_counters(merged, snapshot.get("counters", {}))
        return merged

    def by_node(self) -> Dict[str, dict]:
        """Per-node view: counters summed, gauges min/max-merged."""
        nodes: Dict[str, dict] = {}
        for snapshot in self._snapshots.values():
            labels = snapshot.get("labels", {})
            node = labels.get("node") or labels.get("kind") or "worker"
            entry = nodes.setdefault(
                node,
                {"kind": labels.get("kind", ""), "workers": 0, "counters": {}, "gauges": {}},
            )
            entry["workers"] += 1
            _merge_counters(entry["counters"], snapshot.get("counters", {}))
            for name, value in snapshot.get("gauges", {}).items():
                _merge_gauge(entry["gauges"], name, float(value))
        return nodes

    def load_skew(self, counter: str = "elements_operated") -> dict:
        """Max/mean imbalance of one counter across workers."""
        per_worker = {
            key: int(snapshot.get("counters", {}).get(counter, 0))
            for key, snapshot in self._snapshots.items()
        }
        values = list(per_worker.values())
        if not values or sum(values) == 0:
            return {"max": 0, "mean": 0.0, "skew": 1.0, "per_worker": per_worker}
        mean = sum(values) / len(values)
        peak = max(values)
        return {
            "max": peak,
            "mean": mean,
            "skew": peak / mean if mean else 1.0,
            "per_worker": per_worker,
        }

    # -- renderings --------------------------------------------------------

    def render_report(self) -> str:
        """``EXPLAIN ANALYZE``-style per-node text report."""
        lines: List[str] = []
        nodes = self.by_node()
        if not nodes:
            return "(no metrics collected)"
        for node in sorted(nodes):
            entry = nodes[node]
            kind = entry["kind"]
            header = f"{node} [{kind}]" if kind and kind != node else node
            lines.append(f"{header}  (workers={entry['workers']})")
            counters = entry["counters"]
            gauges = entry["gauges"]
            flow = [
                f"{label}={counters[name]}"
                for label, name in (
                    ("routed", "elements_routed"),
                    ("operated", "elements_operated"),
                    ("emitted", "elements_emitted"),
                )
                if name in counters
            ]
            if flow:
                lines.append("  flow: " + " ".join(flow))
            revisions = [
                f"{name.replace('revision_', '')}={counters[name]}"
                for name in (
                    "revision_emits",
                    "revision_retracts",
                    "revision_refines",
                    "groups_settled",
                )
                if name in counters
            ]
            if revisions:
                lines.append("  revisions: " + " ".join(revisions))
            probability = [
                f"{name}={counters[name]}"
                for name in (
                    "probability_cache_hits",
                    "probability_cache_misses",
                    "probability_factorised",
                )
                if name in counters
            ]
            if probability:
                lines.append("  probability: " + " ".join(probability))
            watermarks = [
                f"{name}={_format_value(gauges[name])}"
                for name in ("watermark", "frontier", "watermark_lag", "open_groups")
                if name in gauges
            ]
            if watermarks:
                lines.append("  progress: " + " ".join(watermarks))
            busy = gauges.get("busy_seconds")
            idle = gauges.get("idle_seconds")
            if busy is not None or idle is not None:
                lines.append(
                    "  loop: busy={:.3f}s idle={:.3f}s".format(
                        busy or 0.0, idle or 0.0
                    )
                )
            inbox = [
                f"{name.replace('inbox_', '')}={_format_value(gauges[name])}"
                for name in (
                    "inbox_depth",
                    "inbox_high_watermark",
                    "inbox_put_blocks",
                )
                if name in gauges
            ]
            if inbox:
                lines.append("  inbox: " + " ".join(inbox))
        skew = self.load_skew()
        if skew["max"]:
            lines.append(
                "load skew: max={max} mean={mean:.1f} ratio={skew:.2f}".format(**skew)
            )
        return "\n".join(lines)

    def prometheus_text(self, prefix: str = "repro") -> str:
        """Prometheus text exposition (one family per metric name)."""
        counters: Dict[str, List[Tuple[str, float]]] = {}
        gauges: Dict[str, List[Tuple[str, float]]] = {}
        histograms: Dict[str, List[Tuple[str, dict]]] = {}
        for key in sorted(self._snapshots):
            snapshot = self._snapshots[key]
            label_text = ",".join(
                f'{name}="{_escape_label(str(value))}"'
                for name, value in sorted(snapshot.get("labels", {}).items())
            )
            for name, value in snapshot.get("counters", {}).items():
                counters.setdefault(name, []).append((label_text, float(value)))
            for name, value in snapshot.get("gauges", {}).items():
                gauges.setdefault(name, []).append((label_text, float(value)))
            for name, data in snapshot.get("histograms", {}).items():
                histograms.setdefault(name, []).append((label_text, data))
        lines: List[str] = []
        for name in sorted(counters):
            metric = f"{prefix}_{name}_total"
            lines.append(f"# TYPE {metric} counter")
            for label_text, value in counters[name]:
                lines.append(f"{metric}{{{label_text}}} {_format_value(value)}")
        for name in sorted(gauges):
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} gauge")
            for label_text, value in gauges[name]:
                lines.append(f"{metric}{{{label_text}}} {_format_value(value)}")
        for name in sorted(histograms):
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} histogram")
            for label_text, data in histograms[name]:
                cumulative = 0
                joiner = "," if label_text else ""
                for bound, bucket in zip(data["bounds"], data["buckets"]):
                    cumulative += bucket
                    lines.append(
                        f'{metric}_bucket{{{label_text}{joiner}le="{_format_value(float(bound))}"}} '
                        f"{cumulative}"
                    )
                lines.append(
                    f'{metric}_bucket{{{label_text}{joiner}le="+Inf"}} {data["count"]}'
                )
                lines.append(f"{metric}_count{{{label_text}}} {data['count']}")
                lines.append(
                    f"{metric}_sum{{{label_text}}} {_format_value(float(data['total']))}"
                )
        return "\n".join(lines) + "\n" if lines else ""
