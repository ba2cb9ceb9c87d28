"""The query engine façade.

:class:`Engine` bundles a catalog, a planner and an executor behind a small
API mirroring how the paper's implementation sits inside PostgreSQL: register
relations, then run TP queries — either as logical plans built
programmatically or as SQL-ish strings — and get TP relations back.  The
engine evaluates physical plans by pulling tuples through the Volcano
operators, so NJ joins stream their windows exactly as the paper's pipelined
integration does.
"""

from __future__ import annotations

from typing import Sequence

from ..dataflow import DataflowQuery
from ..options import ExecutionOptions
from ..relation import TPRelation
from ..stream import StreamDef, StreamQuery
from .catalog import Catalog
from .explain import explain_logical, explain_physical
from .logical import LogicalPlan
from .planner import Planner, PlannerConfig, merged_event_space
from .sql import parse_query


class Engine:
    """An in-memory TP query engine with a SQL-ish front end.

    ``options`` is the one execution-knob surface
    (:class:`repro.ExecutionOptions`): transport, placement, partitions,
    telemetry and the recovery knobs, applied to every continuous,
    dataflow and planner-routed stream query the engine runs.  Joins of
    stored relations run serially with NJ unless a query pins another
    strategy (``USING TA`` / ``USING NAIVE``).
    """

    def __init__(self, options: ExecutionOptions | None = None) -> None:
        self._catalog = Catalog()
        self._planner = Planner(self._catalog, PlannerConfig(stream_config=options))
        self._options = options

    # ------------------------------------------------------------------ #
    # catalog management
    # ------------------------------------------------------------------ #
    @property
    def catalog(self) -> Catalog:
        """The engine's relation catalog."""
        return self._catalog

    def register(self, name: str, relation: TPRelation, replace: bool = False) -> None:
        """Register a relation so queries can refer to it by name."""
        self._catalog.register(name, relation, replace=replace)

    def register_stream(self, name: str, stream: StreamDef, replace: bool = False) -> None:
        """Register a stream so ``STREAM name`` scans can refer to it."""
        self._catalog.register_stream(name, stream, replace=replace)

    def continuous_query(
        self,
        name: str,
        kind: str,
        left: str,
        right: str,
        on: Sequence[tuple[str, str]] = (),
        config: ExecutionOptions | None = None,
        replace: bool = False,
    ) -> StreamQuery:
        """Build a :class:`StreamQuery` and register it under ``name``."""
        query = StreamQuery(
            self._catalog, kind, left, right, on, config=config or self._options
        )
        self._catalog.register_query(name, query, replace=replace)
        return query

    def dataflow_query(
        self,
        name: str,
        nodes: Sequence,
        config: ExecutionOptions | None = None,
        replace: bool = False,
    ) -> DataflowQuery:
        """Build a :class:`repro.dataflow.DataflowQuery` and register it.

        ``nodes`` is a sequence of :class:`repro.dataflow.NodeSpec` in
        topological order over this engine's registered streams.
        """
        query = DataflowQuery(self._catalog, nodes, config=config or self._options)
        self._catalog.register_query(name, query, replace=replace)
        return query

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, plan: LogicalPlan, compute_probabilities: bool = True) -> TPRelation:
        """Execute a logical plan and return the result as a TP relation."""
        physical = self._planner.plan(plan)
        events = self._merged_events(plan)
        with physical:
            tuples = list(physical)
        result = TPRelation(
            physical.output_schema(), tuples, events, name="result", check_constraint=False
        )
        return result.with_probabilities() if compute_probabilities else result

    def execute_sql(self, sql: str, compute_probabilities: bool = True) -> TPRelation:
        """Parse and execute a SQL-ish query string."""
        return self.execute(parse_query(sql).plan, compute_probabilities)

    def explain(self, plan: LogicalPlan) -> str:
        """Return the logical and physical EXPLAIN text for a plan."""
        physical = self._planner.plan(plan)
        return (
            "Logical plan:\n"
            + explain_logical(plan)
            + "\nPhysical plan:\n"
            + explain_physical(physical)
        )

    def explain_sql(self, sql: str) -> str:
        """Parse a query and return its EXPLAIN text."""
        return self.explain(parse_query(sql).plan)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _merged_events(self, plan: LogicalPlan):
        return merged_event_space(self._catalog, plan)


def execute_sql(
    sql: str,
    relations: dict[str, TPRelation],
    compute_probabilities: bool = True,
) -> TPRelation:
    """One-shot convenience: build an engine, register ``relations``, run ``sql``."""
    engine = Engine()
    for name, relation in relations.items():
        engine.register(name, relation)
    return engine.execute_sql(sql, compute_probabilities=compute_probabilities)
