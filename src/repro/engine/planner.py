"""Rule-based planner: logical plans → the plans the engine evaluates.

The planner mirrors, at small scale, the role of PostgreSQL's
optimizer in the paper's implementation, but decides by rule, not by a
cost model — one rule per decision:

* the join strategy is NJ, the paper's approach, unless the query pins
  another (``USING NJ`` / ``USING TA`` / ``USING NAIVE`` in the SQL front
  end) — the benchmarks use this to compare the implementations on
  identical plans;
* a stream-join stage with an equi-θ runs ``ExecutionOptions.partitions``
  workers, and a stage without one runs one worker (it has no key to route
  by); joins of stored relations run serially;
* an equality selection above a join of stored relations moves into the
  input that owns its attribute where that cannot change the answer
  (Galindo-Legaria & Rosenthal, TODS 1997): a left attribute into anti,
  inner and left outer joins, a right attribute into inner and right outer
  joins.  The other kinds pad that input's columns with nulls, or derive
  the other input's windows from its tuples, so the filter stays above.

Pushing selections below joins is the only rewrite performed.
:meth:`Planner.plan` returns a tree of the logical dataclasses in which
every join of stored relations carries its resolved strategy and θ, and
every stream join tree is one :class:`~repro.engine.logical.DataflowJoin`;
:func:`repro.engine.executor.evaluate` evaluates that tree and
:func:`repro.engine.explain.explain_plan` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..baselines.naive import NAIVE_JOINS
from ..baselines.temporal_alignment import TA_JOINS
from ..core.joins import BATCH_JOINS, join_output_schema
from ..dataflow import DataflowGraph, NodeSpec
from ..options import ExecutionOptions
from ..relation import Schema
from .catalog import Catalog
from .errors import PlanError
from .logical import (
    DataflowJoin,
    JoinKind,
    JoinStrategy,
    LogicalPlan,
    Project,
    Scan,
    Select,
    StreamScan,
    Timeslice,
    TPJoin,
    find_scans,
    find_stream_scans,
    walk,
)

#: Resolved strategy → its table of joins (join-kind name → join function).
STRATEGY_JOINS = {
    JoinStrategy.NJ: BATCH_JOINS,
    JoinStrategy.TA: TA_JOINS,
    JoinStrategy.NAIVE: NAIVE_JOINS,
}
#: Resolved strategy → the join's name in EXPLAIN and in error messages.
JOIN_LABELS = {
    JoinStrategy.NJ: "NJJoin",
    JoinStrategy.TA: "TAJoin",
    JoinStrategy.NAIVE: "NaiveJoin",
}


@dataclass(frozen=True)
class PlannerConfig:
    """What the planner hands to the plans it builds."""

    #: Execution knobs handed to continuous (stream) joins; ``None`` means
    #: single-partition inline execution.
    stream_config: Optional[ExecutionOptions] = None


#: The kinds a filter on a left (right) attribute may move into the left
#: (right) input of: that input's columns are never padded with nulls, and
#: no window of the other input is derived from the tuples it drops.
_LEFT_PUSHABLE = (JoinKind.ANTI, JoinKind.INNER, JoinKind.LEFT_OUTER)
_RIGHT_PUSHABLE = (JoinKind.INNER, JoinKind.RIGHT_OUTER)


class Planner:
    """Turn logical plans into the plans the engine evaluates, over a catalog."""

    def __init__(self, catalog: Catalog, config: PlannerConfig | None = None) -> None:
        self._catalog = catalog
        self._config = config or PlannerConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(self, logical: LogicalPlan) -> LogicalPlan:
        """The plan the engine evaluates for ``logical`` (and EXPLAIN renders)."""
        return self._resolve(self._push_down(logical))

    @staticmethod
    def resolve_strategy(requested: JoinStrategy) -> JoinStrategy:
        """Resolve AUTO to NJ; a pinned strategy stays."""
        return JoinStrategy.NJ if requested is JoinStrategy.AUTO else requested

    # ------------------------------------------------------------------ #
    # rewriting
    # ------------------------------------------------------------------ #
    def _push_down(self, plan: LogicalPlan) -> LogicalPlan:
        """Push equality selections below TP joins when they bind one side."""
        if isinstance(plan, Select):
            child = self._push_down(plan.child)
            if isinstance(child, TPJoin):
                pushed = self._try_push_into_join(plan, child)
                if pushed is not None:
                    return pushed
            return replace(plan, child=child)
        if isinstance(plan, (Project, Timeslice)):
            return replace(plan, child=self._push_down(plan.child))
        if isinstance(plan, TPJoin):
            return replace(
                plan, left=self._push_down(plan.left), right=self._push_down(plan.right)
            )
        return plan

    def _try_push_into_join(self, select: Select, join: TPJoin) -> LogicalPlan | None:
        if find_stream_scans(join):
            # A continuous join (or dataflow tree) consumes the streams' own
            # replays; selections stay above it and filter settled output.
            return None
        left_schema = output_schema(self._catalog, join.left)
        right_schema = output_schema(self._catalog, join.right)
        # A clashing right column is prefixed in the output, so a name both
        # inputs carry means the left one.
        if select.attribute in left_schema:
            if join.kind not in _LEFT_PUSHABLE:
                return None
            return replace(join, left=replace(select, child=join.left))
        if select.attribute in right_schema and join.kind in _RIGHT_PUSHABLE:
            return replace(join, right=replace(select, child=join.right))
        return None

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def _resolve(self, plan: LogicalPlan) -> LogicalPlan:
        """Check the scans and resolve every join: a stored one's strategy
        and θ, a stream join tree into one :class:`DataflowJoin`."""
        if isinstance(plan, Scan):
            self._catalog.lookup(plan.relation_name)
            return plan
        if isinstance(plan, StreamScan):
            self._catalog.lookup_stream(plan.stream_name)
            return plan
        if isinstance(plan, (Select, Timeslice, Project)):
            return replace(plan, child=self._resolve(plan.child))
        if isinstance(plan, TPJoin):
            left_streamness = self._streamness(plan.left)
            right_streamness = self._streamness(plan.right)
            if "stream" in (left_streamness, right_streamness) and (
                left_streamness != "stream" or right_streamness != "stream"
            ):
                raise PlanError(
                    "a TP join must be stream × stream or relation × relation; "
                    "register the stored side as a replay stream to mix them"
                )
            if left_streamness == "stream" and right_streamness == "stream":
                # Continuous execution is the watermark-driven NJ pipeline;
                # pinning NJ is redundant but true, pinning anything else
                # would be silently ignored — reject it instead.
                for node in walk(plan):
                    if isinstance(node, TPJoin) and node.strategy not in (
                        JoinStrategy.AUTO,
                        JoinStrategy.NJ,
                    ):
                        raise PlanError(
                            f"USING {node.strategy.value.upper()} cannot be honoured "
                            "on a stream join: continuous execution always uses the "
                            "NJ pipeline"
                        )
                return self._dataflow_join(plan)
            strategy = self.resolve_strategy(plan.strategy)
            left = self._resolve(plan.left)
            right = self._resolve(plan.right)
            on = self._resolve_on(
                plan.on,
                output_schema(self._catalog, left),
                output_schema(self._catalog, right),
            )
            joins = STRATEGY_JOINS[strategy]
            if plan.kind.value not in joins:
                raise PlanError(
                    f"{JOIN_LABELS[strategy]} evaluates {sorted(joins)} joins, "
                    f"not {plan.kind.value}"
                )
            return TPJoin(left, right, plan.kind, on, strategy)
        raise PlanError(f"unsupported logical node {type(plan).__name__}")

    @staticmethod
    def _resolve_reference(schema, name: str) -> str:
        """Map a (possibly qualified) attribute reference to a schema attribute.

        Chained joins accumulate combined schemas in which a clashing
        attribute of a non-first input is prefixed with that input's name
        (``sb.Loc``).  The SQL layer keeps such qualifiers; here they are
        resolved against the *real* schema: the exact (prefixed) name wins,
        a bare match means the attribute never clashed, and as a fallback a
        unique ``*.attr`` suffix match absorbs prefix-spelling differences.
        """
        if name in schema:
            return name
        if "." in name:
            bare = name.split(".", 1)[1]
            # A qualified reference names a *non-first* input, so when the
            # attribute clashed (any "*.attr" is present) the prefixed
            # column is the one meant — the bare column belongs to the
            # left-most input.  Only when it never clashed does the bare
            # name refer to the qualified input's own column.
            suffix_matches = [
                attribute
                for attribute in schema.attributes
                if attribute.endswith(f".{bare}")
            ]
            if len(suffix_matches) == 1:
                return suffix_matches[0]
            if len(suffix_matches) > 1:
                raise PlanError(
                    f"ambiguous attribute reference {name!r}: matches "
                    f"{suffix_matches}"
                )
            if bare in schema:
                return bare
        raise PlanError(
            f"unknown attribute reference {name!r}; available: "
            f"{list(schema.attributes)}"
        )

    def _resolve_on(self, on, left_schema, right_schema):
        """Resolve every θ pair of a join against its input schemas."""
        return tuple(
            (
                self._resolve_reference(left_schema, left_attribute),
                self._resolve_reference(right_schema, right_attribute),
            )
            for left_attribute, right_attribute in on
        )

    def _streamness(self, plan: LogicalPlan) -> str:
        """Classify a join input subtree: ``stream``, ``relation`` or ``mixed``.

        A *stream* subtree is a :class:`StreamScan` or a TP join tree whose
        leaves are all stream scans — the shape the dataflow compiler
        accepts.  Anything containing a relation scan (or an intermediate
        non-join operator) is ``relation``; a tree mixing both is ``mixed``
        (rejected by the caller).
        """
        if isinstance(plan, StreamScan):
            return "stream"
        if isinstance(plan, TPJoin):
            parts = {self._streamness(plan.left), self._streamness(plan.right)}
            if parts == {"stream"}:
                return "stream"
            if "stream" in parts:
                return "mixed"
            return "relation"
        return "relation"

    def _dataflow_join(self, plan: TPJoin) -> DataflowJoin:
        """Compile a stream join tree — one join or a chain — into dataflow
        node specs, one node per join.  A node with an equi-θ runs
        ``stream_config.partitions`` workers, one without runs one."""
        nodes: list[NodeSpec] = []
        sources: list[str] = []
        options = self._config.stream_config or ExecutionOptions()

        def build(subtree: LogicalPlan):
            if isinstance(subtree, StreamScan):
                stream_def = self._catalog.lookup_stream(subtree.stream_name)
                sources.append(subtree.stream_name)
                return subtree.stream_name, stream_def.schema
            assert isinstance(subtree, TPJoin)
            left_name, left_schema = build(subtree.left)
            right_name, right_schema = build(subtree.right)
            name = f"node{len(nodes) + 1}"
            kind = subtree.kind.value
            # Qualified references from chained ON clauses resolve against
            # the accumulated left schema (prefixed name when it clashed,
            # bare name when it never did).
            on = self._resolve_on(subtree.on, left_schema, right_schema)
            partitions = options.partitions if on else 1
            nodes.append(
                NodeSpec(name, kind, left_name, right_name, on, partitions=partitions)
            )
            return name, join_output_schema(kind, left_schema, right_schema, right_name)

        build(plan)
        return DataflowJoin(tuple(nodes), tuple(sources), options)


def output_schema(catalog: Catalog, plan: LogicalPlan) -> Schema:
    """The schema ``plan`` produces: the engine's one schema rule.

    A join's clashing right columns take the right input's name
    (:func:`input_name`).  Push-down, θ resolution and (through the
    joins' own schemas) the evaluator agree on it.
    """
    if isinstance(plan, Scan):
        return catalog.lookup(plan.relation_name).schema
    if isinstance(plan, StreamScan):
        return catalog.lookup_stream(plan.stream_name).schema
    if isinstance(plan, (Select, Timeslice)):
        return output_schema(catalog, plan.child)
    if isinstance(plan, Project):
        return output_schema(catalog, plan.child).project(plan.attributes)
    if isinstance(plan, TPJoin):
        return join_output_schema(
            plan.kind.value,
            output_schema(catalog, plan.left),
            output_schema(catalog, plan.right),
            input_name(plan.right),
        )
    if isinstance(plan, DataflowJoin):
        graph = DataflowGraph(catalog, plan.nodes)
        return graph.schema_of(graph.sink)
    raise PlanError(f"unsupported logical node {type(plan).__name__}")


def input_name(plan: LogicalPlan) -> str:
    """The name a join's right input lends its clashing columns: a scan's
    label, through any selections and timeslices above it; a derived input
    has none (``""``)."""
    while isinstance(plan, (Select, Timeslice)):
        plan = plan.child
    if isinstance(plan, Scan):
        return plan.relation_name
    if isinstance(plan, StreamScan):
        return plan.stream_name
    return ""


def merged_event_space(catalog: Catalog, plan: LogicalPlan):
    """Merge the event spaces of every relation/stream scanned below ``plan``.

    The executor wraps every result in it.
    """
    scans = find_scans(plan)
    stream_scans = find_stream_scans(plan)
    if not scans and not stream_scans:
        raise PlanError("plan contains no scans")
    spaces = [catalog.lookup(scan.relation_name).events for scan in scans]
    spaces.extend(
        catalog.lookup_stream(scan.stream_name).events for scan in stream_scans
    )
    events = spaces[0]
    for space in spaces[1:]:
        events = events.merge(space)
    return events
