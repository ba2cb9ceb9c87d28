"""EXPLAIN output for logical plans and the plans the engine evaluates.

EXPLAIN shows plan nodes, one per line, and no costs: the planner decides
by rule (:mod:`repro.engine.planner`), so there is no estimate to show.
:func:`explain_plan` renders the tree :meth:`~repro.engine.Planner.plan`
returns — the tree the engine evaluates — so what it prints is what runs:
a stored-relation join names its resolved strategy (``NJJoin``, ``TAJoin``,
``NaiveJoin``) and θ.  Stream scans carry a ``[continuous]`` marker: their
inputs are unbounded and progress is driven by watermarks.

Joins of stored relations always run serially.  Every stream join tree —
one join or a chain — is one compiled dataflow graph, rendered by
:func:`explain_dataflow` (which :meth:`repro.serve.StandingQueryService.
explain` calls too).  It carries ``[dataflow k-node]``; when any node runs
more than one partition (``ExecutionOptions.partitions`` on every node with
an equi-θ, or a hand-built ``NodeSpec.partitions``) the marker grows the
per-node degrees as ``[dataflow k-node, parts=K1/K2/...]``.  A run that
leaves the process (``processes`` or ``sockets``) renders its transport too
— ``[dataflow k-node, parts=..., transport=sockets]`` — which is the
transport the run uses: a one-worker plan runs inline whatever
``ExecutionOptions.transport`` says, so it renders none.  Standing queries
mark subplans shared with other standing queries as ``shared=n1/n2``: those
nodes execute once per plan group, not once per query.  A run whose options
enable span-per-element tracing carries ``[traced rate=R]``.  The recovery
marker follows the run's own decision
(:func:`repro.runtime.driver.recovery_decision`): a socket run that recovers
dead seats carries ``[recoverable ckpt=Ns]`` (or ``[recoverable
replay-from-zero]`` without checkpointing), and one that asks for recovery
but whose workers cannot be checkpointed seat by seat carries ``[not
recoverable: peer edges]`` (or ``early emission``).
"""

from __future__ import annotations

from typing import Sequence

from ..dataflow import DataflowGraph
from ..dataflow.compile import compile_graph
from ..options import ExecutionOptions
from ..runtime.driver import default_transport, recovery_decision
from .catalog import Catalog
from .logical import (
    DataflowJoin,
    LogicalPlan,
    Project,
    Scan,
    Select,
    StreamScan,
    Timeslice,
)
from .planner import JOIN_LABELS


def explain_logical(plan: LogicalPlan) -> str:
    """Render a logical plan as an indented tree."""
    lines: list[str] = []
    _render_logical(plan, 0, lines)
    return "\n".join(lines)


def _render_logical(plan: LogicalPlan, depth: int, lines: list[str]) -> None:
    lines.append("  " * depth + plan.describe())
    for child in plan.children():
        _render_logical(child, depth + 1, lines)


def explain_plan(plan: LogicalPlan, catalog: Catalog) -> str:
    """Render a planned tree as an indented tree, markers after each line."""
    lines: list[str] = []
    _render_plan(plan, catalog, 0, lines)
    return "\n".join(lines)


def _render_plan(plan: LogicalPlan, catalog: Catalog, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    if isinstance(plan, DataflowJoin):
        graph = DataflowGraph(catalog, plan.nodes)
        transport = default_transport(plan.options.transport, sum(graph.partition_counts))
        text = explain_dataflow(graph, plan.sources, plan.options, transport)
        lines.extend(indent + line for line in text.split("\n"))
        return
    lines.append(indent + _describe(plan, catalog))
    for child in plan.children():
        _render_plan(child, catalog, depth + 1, lines)


def _describe(plan: LogicalPlan, catalog: Catalog) -> str:
    if isinstance(plan, Scan):
        size = len(catalog.lookup(plan.relation_name))
        return f"Scan {plan.relation_name} ({size} tuples)"
    if isinstance(plan, StreamScan):
        return _stream_scan(plan.stream_name)
    if isinstance(plan, Select):
        return f"Filter {plan.attribute} = {plan.value!r}"
    if isinstance(plan, Timeslice):
        return f"Timeslice {plan.interval}"
    if isinstance(plan, Project):
        return f"Project {', '.join(plan.attributes)}"
    condition = " AND ".join(f"{left} = {right}" for left, right in plan.on) or "true"
    return f"{JOIN_LABELS[plan.strategy]} [{plan.kind.value}] on {condition}"


def _stream_scan(name: str) -> str:
    return f"ContinuousScan {name} (watermarked replay)  [continuous]"


def explain_dataflow(
    graph: DataflowGraph,
    sources: Sequence[str],
    options: ExecutionOptions,
    transport: str,
    shared: Sequence[str] = (),
) -> str:
    """The EXPLAIN lines of one dataflow run on ``transport``: the
    ``DataflowJoin`` line with its markers, then one scan line per source.

    ``shared`` names the nodes the run shares with other standing queries.
    """
    counts = graph.partition_counts
    parts = "/".join(str(count) for count in counts)
    fanned = any(count > 1 for count in counts)
    chain = "→".join(spec.kind for spec in graph.nodes)
    mode = "early-emit" if options.early_emit else "watermark-only"
    line = (
        f"DataflowJoin [{chain}] sink={graph.sink}{' parts=' + parts if fanned else ''} "
        f"({mode}, workers={transport})"
    )
    details = [f"dataflow {len(graph.nodes)}-node"]
    if fanned:
        details.append(f"parts={parts}")
    if transport not in ("inline", "threads"):
        details.append(f"transport={transport}")
    if shared:
        details.append("shared=" + "/".join(shared))
    markers = ["[continuous]", f"[{', '.join(details)}]"]
    if options.trace:
        markers.append(f"[traced rate={options.trace_sample_rate:g}]")
    specs = compile_graph(graph, options)[0] if options.recovery_enabled else ()
    recover, blocker = recovery_decision(transport, specs, options)
    if recover:
        interval = options.checkpoint_interval
        every = f"ckpt={interval:g}s" if interval is not None else "replay-from-zero"
        markers.append(f"[recoverable {every}]")
    if blocker is not None:
        markers.append(f"[not recoverable: {blocker}]")
    scans = [f"  {_stream_scan(name)}" for name in sources]
    return "\n".join([f"{line}  {' '.join(markers)}", *scans])
