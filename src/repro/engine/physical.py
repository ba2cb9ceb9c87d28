"""Physical operators.

Each operator implements the Volcano protocol of
:class:`repro.engine.iterators.PhysicalOperator` and produces
:class:`TPTuple` instances.  The join operators share one ``_produce`` —
materialise both inputs, call the strategy's join for the kind, stream the
result out — and differ only in the table of joins they look the kind up in
(NJ and TA being the paper's two compared systems):

* :class:`NJJoinOperator` runs :func:`repro.core.joins.tp_join`: one overlap
  join, then the LAWAU/LAWAN sweeps; nothing is replicated.
* :class:`TAJoinOperator` evaluates the same join the Temporal Alignment way:
  the union-based TA plan with its repeated conventional joins, alignment
  replication and duplicate-removing union.
* :class:`NaiveJoinOperator` applies the window definitions time point by
  time point (the oracle; small inputs only).

Probabilities are computed lazily by the executor, not inside the join
operators, so benchmark measurements isolate the window computation the paper
measures.
"""

from __future__ import annotations

from typing import Iterator

from ..baselines.naive import NAIVE_JOINS
from ..baselines.temporal_alignment import TA_JOINS
from ..core.joins import BATCH_JOINS, join_output_schema
from ..relation import (
    Schema,
    TPRelation,
    TPTuple,
    project as project_relation,
    theta_or_true,
)
from ..temporal import Interval
from .errors import PlanError
from .iterators import PhysicalOperator
from .logical import JoinKind, JoinStrategy


class ScanOperator(PhysicalOperator):
    """Scan an in-memory TP relation."""

    def __init__(self, relation: TPRelation, label: str = "") -> None:
        super().__init__()
        self._relation = relation
        self._label = label or relation.name

    def output_schema(self) -> Schema:
        return self._relation.schema

    def input_name(self) -> str:
        return self._label

    def relation(self) -> TPRelation:
        """The scanned relation (join operators pull it whole)."""
        return self._relation

    def describe(self) -> str:
        return f"Scan {self._label} ({len(self._relation)} tuples)"

    def estimated_cost(self) -> float:
        return float(len(self._relation))

    def _produce(self) -> Iterator[TPTuple]:
        yield from self._relation


class FilterOperator(PhysicalOperator):
    """Equality selection on one fact attribute."""

    def __init__(self, child: PhysicalOperator, attribute: str, value: object) -> None:
        super().__init__()
        self._child = child
        self._attribute = attribute
        self._value = value

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def output_schema(self) -> Schema:
        return self._child.output_schema()

    def input_name(self) -> str:
        return self._child.input_name()

    def describe(self) -> str:
        return f"Filter {self._attribute} = {self._value!r}"

    def _produce(self) -> Iterator[TPTuple]:
        index = self._child.output_schema().index(self._attribute)
        for tp_tuple in self._child:
            if tp_tuple.fact[index] == self._value:
                yield tp_tuple


class TimesliceOperator(PhysicalOperator):
    """Restrict tuples to a query interval (dropping non-overlapping ones)."""

    def __init__(self, child: PhysicalOperator, interval: Interval) -> None:
        super().__init__()
        self._child = child
        self._interval = interval

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def output_schema(self) -> Schema:
        return self._child.output_schema()

    def input_name(self) -> str:
        return self._child.input_name()

    def describe(self) -> str:
        return f"Timeslice {self._interval}"

    def _produce(self) -> Iterator[TPTuple]:
        for tp_tuple in self._child:
            overlap = tp_tuple.interval.intersect(self._interval)
            if overlap is not None:
                yield tp_tuple.with_interval(overlap)


class ProjectOperator(PhysicalOperator):
    """Projection with lineage disjunction (blocking: needs grouping)."""

    def __init__(self, child: PhysicalOperator, attributes: tuple[str, ...], events) -> None:
        super().__init__()
        self._child = child
        self._attributes = attributes
        self._events = events

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def output_schema(self) -> Schema:
        return self._child.output_schema().project(self._attributes)

    def describe(self) -> str:
        return f"Project {', '.join(self._attributes)}"

    def _produce(self) -> Iterator[TPTuple]:
        materialised = TPRelation(
            self._child.output_schema(),
            list(self._child),
            self._events,
            check_constraint=False,
        )
        yield from project_relation(materialised, self._attributes)


class _JoinOperatorBase(PhysicalOperator):
    """Shared machinery of the NJ / TA / naive join operators."""

    #: Label in EXPLAIN and in error messages.
    label = ""
    #: Join-kind name → join function of this operator's strategy.
    joins: dict = {}

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: JoinKind,
        on: tuple[tuple[str, str], ...],
        events,
    ) -> None:
        super().__init__()
        if kind.value not in self.joins:
            raise PlanError(
                f"{self.label} evaluates {sorted(self.joins)} joins, not {kind.value}"
            )
        self._left = left
        self._right = right
        self._kind = kind
        self._on = on
        self._events = events

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def _materialise(self, operator: PhysicalOperator, name: str) -> TPRelation:
        if isinstance(operator, ScanOperator):
            return operator.relation()
        return TPRelation(
            operator.output_schema(),
            list(operator),
            self._events,
            name=name,
            check_constraint=False,
        )

    def output_schema(self) -> Schema:
        return join_output_schema(
            self._kind.value,
            self._left.output_schema(),
            self._right.output_schema(),
            self._right.input_name(),
        )

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return f"{self.label} [{self._kind.value}] on {condition}"

    def estimated_cost(self) -> float:
        return self._left.estimated_cost() + self._right.estimated_cost()

    def _produce(self) -> Iterator[TPTuple]:
        left = self._materialise(self._left, "left")
        right = self._materialise(self._right, "right")
        theta = theta_or_true(left.schema, right.schema, self._on)
        yield from self.joins[self._kind.value](
            left, right, theta, compute_probabilities=False
        )


class NJJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the paper's NJ pipeline (lineage-aware windows)."""

    label = "NJJoin"
    joins = BATCH_JOINS

    def estimated_cost(self) -> float:
        # NJ: one conventional join plus linear sweeps.
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left + right + (left + right)


class TAJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the Temporal Alignment baseline."""

    label = "TAJoin"
    joins = TA_JOINS

    def estimated_cost(self) -> float:
        # TA: repeated conventional joins with replication → quadratic-ish.
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left + right + 2.0 * left * max(right, 1.0)


class NaiveJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the naive per-time-point oracle (small inputs)."""

    label = "NaiveJoin"
    joins = NAIVE_JOINS

    def estimated_cost(self) -> float:
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left * max(right, 1.0) * 10.0


def join_operator_for(
    strategy: JoinStrategy,
    left: PhysicalOperator,
    right: PhysicalOperator,
    kind: JoinKind,
    on: tuple[tuple[str, str], ...],
    events,
) -> PhysicalOperator:
    """Instantiate the physical join operator for a resolved strategy."""
    if strategy is JoinStrategy.NJ:
        return NJJoinOperator(left, right, kind, on, events)
    if strategy is JoinStrategy.TA:
        return TAJoinOperator(left, right, kind, on, events)
    if strategy is JoinStrategy.NAIVE:
        return NaiveJoinOperator(left, right, kind, on, events)
    raise PlanError(f"strategy {strategy} must be resolved before physicalisation")
