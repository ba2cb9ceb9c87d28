"""Rule-based planner: logical plans → physical plans.

The planner mirrors, at small scale, the role of PostgreSQL's
optimizer in the paper's implementation: it decides which physical join
operator evaluates a TP join.  The default policy is

* honour an explicitly pinned strategy (``USING NJ`` / ``USING TA`` /
  ``USING NAIVE`` in the SQL front end) — the benchmarks use this to compare
  the implementations on identical plans;
* otherwise pick NJ, the paper's approach, unless the planner is constructed
  with ``prefer_ta=True`` (useful for demonstrating the baseline end-to-end).

Pushing selections below joins is the only rewrite performed; it is enough
for the example workloads and keeps the planner easy to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.joins import join_output_schema
from ..dataflow import NodeSpec
from ..parallel.plan import ParallelConfig, choose_partitions
from ..options import ExecutionOptions
from .catalog import Catalog
from .continuous import ContinuousScanOperator, DataflowJoinOperator
from .errors import PlanError
from .iterators import PhysicalOperator
from .logical import (
    JoinKind,
    JoinStrategy,
    LogicalPlan,
    Project,
    Scan,
    Select,
    StreamScan,
    Timeslice,
    TPJoin,
    walk,
)
from .physical import (
    FilterOperator,
    ProjectOperator,
    ScanOperator,
    TimesliceOperator,
    join_operator_for,
)


@dataclass(frozen=True)
class PlannerConfig:
    """Planner policy knobs."""

    default_strategy: JoinStrategy = JoinStrategy.NJ
    push_down_selections: bool = True
    #: Execution knobs handed to continuous (stream) joins; ``None`` means
    #: single-partition inline execution.
    stream_config: Optional[ExecutionOptions] = None
    #: Partition-planner knobs for stream-join stages; ``None`` (the
    #: default) gives every stage ``stream_config.partitions``.  Joins of
    #: stored relations always run serially.
    parallel: Optional[ParallelConfig] = None


class Planner:
    """Turn logical plans into physical operator trees over a catalog."""

    def __init__(self, catalog: Catalog, config: PlannerConfig | None = None) -> None:
        self._catalog = catalog
        self._config = config or PlannerConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(self, logical: LogicalPlan) -> PhysicalOperator:
        """Produce the physical plan for a logical plan."""
        rewritten = self._push_down(logical) if self._config.push_down_selections else logical
        return self._physicalise(rewritten)

    def resolve_strategy(self, requested: JoinStrategy) -> JoinStrategy:
        """Resolve AUTO to the planner's default strategy."""
        if requested is JoinStrategy.AUTO:
            return self._config.default_strategy
        return requested

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
            return Select(child, plan.attribute, plan.value)
        if isinstance(plan, Project):
            return Project(self._push_down(plan.child), plan.attributes)
        if isinstance(plan, Timeslice):
            return Timeslice(self._push_down(plan.child), plan.interval)
        if isinstance(plan, TPJoin):
            return TPJoin(
                self._push_down(plan.left),
                self._push_down(plan.right),
                plan.kind,
                plan.on,
                plan.strategy,
            )
        return plan

    def _try_push_into_join(self, select: Select, join: TPJoin) -> LogicalPlan | None:
        from .logical import find_stream_scans

        if find_stream_scans(join):
            # A continuous join (or dataflow tree) consumes the streams' own
            # replays; selections stay above it and filter settled output.
            return None
        # The physical operators own the schema rule (clash prefixes included).
        left_schema = self._physicalise(join.left).output_schema()
        right_schema = self._physicalise(join.right).output_schema()
        if select.attribute in left_schema:
            new_left = Select(join.left, select.attribute, select.value)
            return TPJoin(new_left, join.right, join.kind, join.on, join.strategy)
        if select.attribute in right_schema and join.kind in (
            JoinKind.INNER,
            JoinKind.LEFT_OUTER,
        ):
            # Safe only for the sides whose tuples cannot be padded with nulls.
            new_right = Select(join.right, select.attribute, select.value)
            return TPJoin(join.left, new_right, join.kind, join.on, join.strategy)
        return None

    # ------------------------------------------------------------------ #
    # physicalisation
    # ------------------------------------------------------------------ #
    def _physicalise(self, plan: LogicalPlan) -> PhysicalOperator:
        if isinstance(plan, Scan):
            return ScanOperator(self._catalog.lookup(plan.relation_name), plan.relation_name)
        if isinstance(plan, StreamScan):
            return ContinuousScanOperator(
                self._catalog.lookup_stream(plan.stream_name), plan.stream_name
            )
        if isinstance(plan, Select):
            return FilterOperator(self._physicalise(plan.child), plan.attribute, plan.value)
        if isinstance(plan, Timeslice):
            return TimesliceOperator(self._physicalise(plan.child), plan.interval)
        if isinstance(plan, Project):
            return ProjectOperator(
                self._physicalise(plan.child), plan.attributes, self._merged_events(plan)
            )
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
            left_operator = self._physicalise(plan.left)
            right_operator = self._physicalise(plan.right)
            on = self._resolve_on(
                plan.on, left_operator.output_schema(), right_operator.output_schema()
            )
            return join_operator_for(
                strategy,
                left_operator,
                right_operator,
                plan.kind,
                on,
                self._merged_events(plan),
            )
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

    def _dataflow_join(self, plan: TPJoin) -> PhysicalOperator:
        """Compile a stream join tree — one join or a chain — into a dataflow
        graph, one node per join, each with its degree from
        :meth:`_dataflow_partitions`."""
        nodes: list[NodeSpec] = []
        scans: list[ContinuousScanOperator] = []

        def build(subtree: LogicalPlan):
            if isinstance(subtree, StreamScan):
                stream_def = self._catalog.lookup_stream(subtree.stream_name)
                scans.append(ContinuousScanOperator(stream_def, subtree.stream_name))
                return subtree.stream_name, stream_def.schema, (subtree.stream_name,)
            assert isinstance(subtree, TPJoin)
            left_name, left_schema, left_streams = build(subtree.left)
            right_name, right_schema, right_streams = build(subtree.right)
            name = f"node{len(nodes) + 1}"
            kind = subtree.kind.value
            # Qualified references from chained ON clauses resolve against
            # the accumulated left schema (prefixed name when it clashed,
            # bare name when it never did).
            on = self._resolve_on(subtree.on, left_schema, right_schema)
            partitions = self._dataflow_partitions(
                left_streams,
                right_streams,
                on,
                right_is_stream=isinstance(subtree.right, StreamScan),
            )
            nodes.append(
                NodeSpec(name, kind, left_name, right_name, on, partitions=partitions)
            )
            return (
                name,
                join_output_schema(kind, left_schema, right_schema, right_name),
                left_streams + right_streams,
            )

        build(plan)
        return DataflowJoinOperator(
            self._catalog, tuple(scans), nodes, config=self._config.stream_config
        )

    def _dataflow_partitions(
        self,
        left_streams: tuple[str, ...],
        right_streams: tuple[str, ...],
        on: tuple[tuple[str, str], ...],
        right_is_stream: bool,
    ) -> int:
        """Partition degree for one dataflow stage (1 means a single worker).

        The one partition rule of stream joins.  A stage needs an equi-θ to
        route by, else it runs one worker.  With a
        :class:`~repro.parallel.plan.ParallelConfig` the degree comes from
        the stream-statistics state model: hot stages (large expected window
        state) fan out into more key-routed workers than cold ones.  The
        estimate sums the expected statistics of the source streams under
        each input subtree; the distinct-key cap applies only when the right
        input is a single stream whose key selectivity is actually known.
        Without one, every stage takes ``stream_config.partitions``.
        """
        if not on:
            return 1
        if self._config.parallel is None:
            stream_config = self._config.stream_config
            return 1 if stream_config is None else stream_config.partitions
        state, left_cardinality, right_distinct = (
            self._catalog.stream_join_state_estimate(
                list(left_streams), list(right_streams), on
            )
        )
        distinct = right_distinct if right_is_stream and right_distinct > 0 else None
        return choose_partitions(
            state, left_cardinality, self._config.parallel, distinct_keys=distinct
        )

    def _merged_events(self, plan: LogicalPlan):
        return merged_event_space(self._catalog, plan)


def merged_event_space(catalog: Catalog, plan: LogicalPlan):
    """Merge the event spaces of every relation/stream scanned below ``plan``.

    Shared by the planner (for operators that need the space at build time)
    and the executor (for wrapping results); both must agree on it.
    """
    from .logical import find_scans, find_stream_scans

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
