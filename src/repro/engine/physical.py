"""Physical operators.

Each operator implements the Volcano protocol of
:class:`repro.engine.iterators.PhysicalOperator` and produces
:class:`TPTuple` instances.  The two TP join operators differ exactly the way
the paper's two compared systems differ:

* :class:`NJJoinOperator` pipelines the window computation (overlap join →
  LAWAU → LAWAN) through the streaming generators of
  :mod:`repro.core.streaming`; nothing is replicated and output tuples are
  produced incrementally.
* :class:`TAJoinOperator` evaluates the same join the Temporal Alignment way:
  it materialises its inputs, runs the union-based TA plan (with its repeated
  conventional joins, alignment replication and duplicate-removing union) and
  only then streams the result out.

Probabilities are computed lazily by the executor, not inside the join
operators, so benchmark measurements isolate the window computation the paper
measures.
"""

from __future__ import annotations

from typing import Iterator

from ..baselines.naive import naive_anti_join, naive_full_outer_join, naive_left_outer_join
from ..baselines.temporal_alignment import (
    ta_anti_join,
    ta_full_outer_join,
    ta_left_outer_join,
)
from ..core.joins import BATCH_JOINS
from ..relation import (
    Schema,
    TPRelation,
    TPTuple,
    ThetaCondition,
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

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: JoinKind,
        on: tuple[tuple[str, str], ...],
        events,
    ) -> None:
        super().__init__()
        self._left = left
        self._right = right
        self._kind = kind
        self._on = on
        self._events = events

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._left, self._right)

    def _theta(self, left_schema: Schema, right_schema: Schema) -> ThetaCondition:
        return theta_or_true(left_schema, right_schema, self._on)

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
        left_schema = self._left.output_schema()
        right_schema = self._right.output_schema()
        if self._kind is JoinKind.ANTI:
            return left_schema
        # Clashing right attributes get an "s." prefix; in a join *chain* the
        # prefixed name itself can clash with an earlier join's prefix, so
        # uniquify ("s2.", "s3.", ...) instead of raising a duplicate-schema
        # error.
        taken = set(left_schema.attributes)
        right_attributes = []
        for name in right_schema.attributes:
            candidate = name
            if candidate in taken:
                candidate = f"s.{name}"
                counter = 2
                while candidate in taken:
                    candidate = f"s{counter}.{name}"
                    counter += 1
            taken.add(candidate)
            right_attributes.append(candidate)
        return Schema(left_schema.attributes + tuple(right_attributes))

    def estimated_cost(self) -> float:
        return self._left.estimated_cost() + self._right.estimated_cost()


class NJJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the paper's NJ pipeline (lineage-aware windows)."""

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return f"NJJoin [{self._kind.value}] on {condition}"

    def estimated_cost(self) -> float:
        # NJ: one conventional join plus linear sweeps.
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left + right + (left + right)

    def _produce(self) -> Iterator[TPTuple]:
        left_relation = self._materialise(self._left, "left")
        right_relation = self._materialise(self._right, "right")
        theta = self._theta(left_relation.schema, right_relation.schema)
        join = BATCH_JOINS[self._kind.value]
        result = join(left_relation, right_relation, theta, compute_probabilities=False)
        yield from result


class ParallelNJJoinOperator(_JoinOperatorBase):
    """NJ join sharded across worker processes (shared-nothing execution).

    The operator hash-partitions both inputs on the equi-join key, runs the
    unchanged NJ window pipeline per shard in a process pool and merges the
    shard outputs in canonical order (:mod:`repro.parallel.batch`).  The
    planner instantiates it instead of :class:`NJJoinOperator` when the
    state-size cost model says the join is large enough to amortise process
    start-up; ``EXPLAIN`` renders it with a ``[parallel n=K]`` marker.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        kind: JoinKind,
        on: tuple[tuple[str, str], ...],
        events,
        workers: int,
    ) -> None:
        super().__init__(left, right, kind, on, events)
        if workers < 2:
            raise PlanError("a parallel join needs at least two workers")
        if not on:
            raise PlanError("a parallel join requires an equi-join condition")
        #: Read by EXPLAIN to render the ``[parallel n=K]`` annotation.
        self.parallel_workers = workers
        self.last_result = None

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return f"ParallelNJJoin [{self._kind.value}] on {condition}"

    def estimated_cost(self) -> float:
        # The NJ work divided across workers, plus a merge/serialization toll.
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        serial = left + right + (left + right)
        return serial / self.parallel_workers + 0.1 * (left + right)

    def _produce(self) -> Iterator[TPTuple]:
        from ..parallel.batch import parallel_tp_join

        left_relation = self._materialise(self._left, "left")
        right_relation = self._materialise(self._right, "right")
        self.last_result = parallel_tp_join(
            self._kind.value,
            left_relation,
            right_relation,
            self._on,
            workers=self.parallel_workers,
            compute_probabilities=False,
        )
        yield from self.last_result.relation


class TAJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the Temporal Alignment baseline."""

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return f"TAJoin [{self._kind.value}] on {condition}"

    def estimated_cost(self) -> float:
        # TA: repeated conventional joins with replication → quadratic-ish.
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left + right + 2.0 * left * max(right, 1.0)

    def _produce(self) -> Iterator[TPTuple]:
        left_relation = self._materialise(self._left, "left")
        right_relation = self._materialise(self._right, "right")
        theta = self._theta(left_relation.schema, right_relation.schema)
        if self._kind is JoinKind.ANTI:
            result = ta_anti_join(left_relation, right_relation, theta, compute_probabilities=False)
        elif self._kind is JoinKind.LEFT_OUTER:
            result = ta_left_outer_join(
                left_relation, right_relation, theta, compute_probabilities=False
            )
        elif self._kind is JoinKind.FULL_OUTER:
            result = ta_full_outer_join(
                left_relation, right_relation, theta, compute_probabilities=False
            )
        elif self._kind is JoinKind.RIGHT_OUTER:
            # TA evaluates a right outer join as the mirrored left outer join.
            from ..core.joins import swap_theta

            mirrored = ta_left_outer_join(
                right_relation, left_relation, swap_theta(theta), compute_probabilities=False
            )
            yield from _mirror_right_outer(mirrored, left_relation, right_relation)
            return
        elif self._kind is JoinKind.INNER:
            result = tp_inner_join(left_relation, right_relation, theta, compute_probabilities=False)
        else:  # pragma: no cover - all kinds handled
            raise PlanError(f"unsupported join kind {self._kind}")
        yield from result


class NaiveJoinOperator(_JoinOperatorBase):
    """TP join evaluated with the naive per-time-point oracle (small inputs)."""

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self._on) or "true"
        return f"NaiveJoin [{self._kind.value}] on {condition}"

    def estimated_cost(self) -> float:
        left = self._left.estimated_cost()
        right = self._right.estimated_cost()
        return left * max(right, 1.0) * 10.0

    def _produce(self) -> Iterator[TPTuple]:
        left_relation = self._materialise(self._left, "left")
        right_relation = self._materialise(self._right, "right")
        theta = self._theta(left_relation.schema, right_relation.schema)
        if self._kind is JoinKind.ANTI:
            result = naive_anti_join(left_relation, right_relation, theta, compute_probabilities=False)
        elif self._kind is JoinKind.LEFT_OUTER:
            result = naive_left_outer_join(
                left_relation, right_relation, theta, compute_probabilities=False
            )
        elif self._kind is JoinKind.FULL_OUTER:
            result = naive_full_outer_join(
                left_relation, right_relation, theta, compute_probabilities=False
            )
        else:
            raise PlanError(
                f"the naive strategy supports anti/left/full outer joins, not {self._kind.value}"
            )
        yield from result


def _mirror_right_outer(
    mirrored: TPRelation, left_relation: TPRelation, right_relation: TPRelation
) -> Iterator[TPTuple]:
    """Reorder the fact columns of a mirrored left outer join back to (left, right)."""
    right_width = len(right_relation.schema)
    for tp_tuple in mirrored:
        right_part = tp_tuple.fact[:right_width]
        left_part = tp_tuple.fact[right_width:]
        yield TPTuple(tuple(left_part) + tuple(right_part), tp_tuple.lineage, tp_tuple.interval)


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
