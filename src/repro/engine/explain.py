"""EXPLAIN output for logical and physical plans.

EXPLAIN shows operators, one per line, and no costs: the planner decides by
rule (:mod:`repro.engine.planner`), so there is no estimate to show.
Continuous (stream-backed) operators carry a ``[continuous]`` marker: their
inputs are unbounded and progress is driven by watermarks.

Joins of stored relations always run serially.  Every stream join
tree — one join or a chain — is one compiled dataflow graph and carries
``[dataflow k-node]``, read from ``dataflow_nodes``; when any node runs
more than one partition (``ExecutionOptions.partitions`` on every node with
an equi-θ, or a hand-built ``NodeSpec.partitions``) the marker grows the
per-node degrees as ``[dataflow k-node, parts=K1/K2/...]`` from
``dataflow_partitions``.  A plan whose run leaves the process
(``processes`` or ``sockets``) renders the transport too —
``[dataflow k-node, parts=..., transport=sockets]``, read from
``dataflow_transport``, which is the transport the run uses: a one-worker
plan runs inline whatever ``ExecutionOptions.transport`` says, so it
renders none.  Standing queries served through
:class:`repro.serve.StandingQueryService` mark subplans shared with other
standing queries as ``shared=n1/n2`` (read from ``dataflow_shared``): those
nodes execute once per plan group, not once per query.  Plans whose config
enables span-per-element tracing carry ``[traced rate=R]``, read from
``trace_sample_rate`` (``None`` when tracing is off); plans whose options
enable seat recovery carry ``[recoverable ckpt=Ns]`` (or ``[recoverable
replay-from-zero]`` without checkpointing), read from ``recoverable`` /
``recovery_checkpoint_interval``; a dataflow plan under such options whose
workers cannot be checkpointed seat by seat is not recovered and carries
``[not recoverable: peer edges]`` (or ``early emission``), read from
``not_recoverable``.
"""

from __future__ import annotations

from .iterators import PhysicalOperator
from .logical import LogicalPlan


def explain_logical(plan: LogicalPlan) -> str:
    """Render a logical plan as an indented tree."""
    lines: list[str] = []
    _render_logical(plan, 0, lines)
    return "\n".join(lines)


def _render_logical(plan: LogicalPlan, depth: int, lines: list[str]) -> None:
    lines.append("  " * depth + plan.describe())
    for child in plan.children():
        _render_logical(child, depth + 1, lines)


def explain_physical(operator: PhysicalOperator) -> str:
    """Render a physical plan as an indented tree, markers after each line."""
    lines: list[str] = []
    _render_physical(operator, 0, lines)
    return "\n".join(lines)


def _render_physical(operator: PhysicalOperator, depth: int, lines: list[str]) -> None:
    markers: list[str] = []
    if getattr(operator, "is_continuous", False):
        markers.append("[continuous]")
    dataflow_nodes = getattr(operator, "dataflow_nodes", 0)
    if dataflow_nodes:
        details = [f"dataflow {dataflow_nodes}-node"]
        partitions = getattr(operator, "dataflow_partitions", ())
        if any(count > 1 for count in partitions):
            details.append("parts=" + "/".join(str(count) for count in partitions))
        transport = getattr(operator, "dataflow_transport", "threads")
        if transport not in ("inline", "threads"):
            details.append(f"transport={transport}")
        shared = getattr(operator, "dataflow_shared", ())
        if shared:
            details.append("shared=" + "/".join(shared))
        markers.append(f"[{', '.join(details)}]")
    trace_rate = getattr(operator, "trace_sample_rate", None)
    if trace_rate is not None:
        markers.append(f"[traced rate={trace_rate:g}]")
    if getattr(operator, "recoverable", False):
        interval = getattr(operator, "recovery_checkpoint_interval", None)
        mode = f"ckpt={interval:g}s" if interval is not None else "replay-from-zero"
        markers.append(f"[recoverable {mode}]")
    cause = getattr(operator, "not_recoverable", None)
    if cause is not None:
        markers.append(f"[not recoverable: {cause}]")
    line = "  " * depth + operator.describe()
    lines.append(f"{line}  {' '.join(markers)}" if markers else line)
    for child in operator.children():
        _render_physical(child, depth + 1, lines)


def explain_analyze(operator: PhysicalOperator) -> str:
    """The physical plan plus runtime telemetry from the last execution.

    Works on any operator tree; nodes that ran a continuous/dataflow query
    with metrics enabled (``ExecutionOptions(metrics=True)``) contribute
    their last result's per-node report
    (:meth:`~repro.dataflow.query.DataflowResult.explain_analyze`), read
    from the ``last_result`` attribute the continuous operators maintain.
    Without a prior run (or with metrics off) the plan renders alone.
    """
    lines = [explain_physical(operator)]
    _append_analysis(operator, lines)
    return "\n".join(lines)


def _append_analysis(operator: PhysicalOperator, lines: list[str]) -> None:
    analyze = getattr(getattr(operator, "last_result", None), "explain_analyze", None)
    if analyze is not None:
        lines.append("")
        lines.append(analyze())
    for child in operator.children():
        _append_analysis(child, lines)
