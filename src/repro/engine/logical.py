"""Logical query plans.

The engine models a small but complete algebra over TP relations: scans,
selections, projections, timeslices and the TP joins of the paper.  A logical
plan is a tree of the dataclasses below; it says *what* to compute.  The
planner (:mod:`repro.engine.planner`) turns it into a physical plan that says
*how* — in particular which join implementation (NJ or TA) runs the TP joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from ..temporal import Interval


class JoinKind(str, Enum):
    """The TP join operators supported by the engine."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    RIGHT_OUTER = "right_outer"
    FULL_OUTER = "full_outer"
    ANTI = "anti"


class JoinStrategy(str, Enum):
    """Which physical implementation evaluates a TP join."""

    AUTO = "auto"
    NJ = "nj"
    TA = "ta"
    NAIVE = "naive"


class LogicalPlan:
    """Base class of logical plan nodes."""

    def children(self) -> tuple["LogicalPlan", ...]:
        """The child plans of this node."""
        return ()

    def describe(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Scan a catalogued relation by name."""

    relation_name: str

    def describe(self) -> str:
        return f"Scan({self.relation_name})"


@dataclass(frozen=True)
class StreamScan(LogicalPlan):
    """Scan a registered stream by name (``FROM STREAM name`` in SQL).

    A bare stream scan drains the stream's replay; under a TP join the
    planner fuses two stream scans into a continuous, watermark-driven join.
    """

    stream_name: str

    def describe(self) -> str:
        return f"StreamScan({self.stream_name})"


@dataclass(frozen=True)
class Select(LogicalPlan):
    """Equality selection on a fact attribute."""

    child: LogicalPlan
    attribute: str
    value: object

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Select({self.attribute} = {self.value!r})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Projection onto a list of attributes (with lineage disjunction)."""

    child: LogicalPlan
    attributes: tuple[str, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.attributes)})"


@dataclass(frozen=True)
class Timeslice(LogicalPlan):
    """Restrict the input to a query interval."""

    child: LogicalPlan
    interval: Interval

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Timeslice({self.interval})"


@dataclass(frozen=True)
class TPJoin(LogicalPlan):
    """A temporal-probabilistic join between two sub-plans.

    ``on`` lists ``(left_attribute, right_attribute)`` equality pairs — the
    θ condition.  An empty list means a pure temporal join (θ = true).
    ``strategy`` lets a query pin the implementation (``USING TA`` in the SQL
    front end); ``AUTO`` defers the decision to the planner.
    """

    left: LogicalPlan
    right: LogicalPlan
    kind: JoinKind
    on: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    strategy: JoinStrategy = JoinStrategy.AUTO

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        condition = " AND ".join(f"{left} = {right}" for left, right in self.on) or "true"
        return f"TPJoin[{self.kind.value}] on {condition} ({self.strategy.value})"


def walk(plan: LogicalPlan) -> Sequence[LogicalPlan]:
    """Pre-order traversal of a logical plan."""
    nodes: list[LogicalPlan] = [plan]
    for child in plan.children():
        nodes.extend(walk(child))
    return nodes


def find_scans(plan: LogicalPlan) -> list[Scan]:
    """All relation-scan leaves of a plan (their event spaces merge into the
    result's)."""
    return [node for node in walk(plan) if isinstance(node, Scan)]


def find_stream_scans(plan: LogicalPlan) -> list[StreamScan]:
    """All stream-scan leaves of a plan."""
    return [node for node in walk(plan) if isinstance(node, StreamScan)]
