"""Temporal-probabilistic relations.

A :class:`TPRelation` bundles a schema, a list of TP tuples and the event
space holding the marginal probabilities of the base events referenced by
the tuples' lineages.  It enforces the standard TP integrity constraint that
tuples carrying the same fact have pairwise disjoint validity intervals
(the paper relies on this: the ``λr`` of a window then corresponds to a
single tuple of the positive relation).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..lineage import EventSpace, ProbabilityComputer
from ..temporal import Interval
from .errors import ConstraintViolation, SchemaError
from .schema import Schema
from .tptuple import TPTuple


class TPRelation:
    """An in-memory temporal-probabilistic relation."""

    __slots__ = ("_schema", "_tuples", "_events", "_name")

    def __init__(
        self,
        schema: Schema,
        tuples: Iterable[TPTuple] = (),
        events: EventSpace | None = None,
        name: str = "",
        check_constraint: bool = True,
    ) -> None:
        self._schema = schema
        self._tuples: list[TPTuple] = list(tuples)
        self._events = events if events is not None else EventSpace()
        self._name = name
        for tp_tuple in self._tuples:
            schema.validate_fact(tp_tuple.fact)
        if check_constraint:
            self.check_duplicate_free()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Sequence[tuple],
        events: EventSpace | None = None,
        name: str = "",
    ) -> "TPRelation":
        """Build a base relation from ``(fact..., event, start, end, p)`` rows.

        Each row lists the fact values in schema order, followed by the event
        variable name, the interval bounds and the marginal probability — the
        same column order as the paper's Fig. 1a tables.  The events are
        registered in the relation's event space.
        """
        space = events if events is not None else EventSpace()
        width = len(schema)
        tuples: list[TPTuple] = []
        for row in rows:
            if len(row) != width + 4:
                raise SchemaError(
                    f"row {row!r} must have {width} fact values plus "
                    "(event, start, end, probability)"
                )
            fact = tuple(row[:width])
            event, start, end, probability = row[width:]
            space.register(str(event), float(probability))
            tuples.append(
                TPTuple.base(fact, str(event), Interval(int(start), int(end)), float(probability))
            )
        return cls(schema, tuples, space, name=name)

    @classmethod
    def _trusted(
        cls, schema: Schema, tuples: list[TPTuple], events: EventSpace, name: str
    ) -> "TPRelation":
        """A relation that owns ``tuples`` and checks none of them.

        For an operator whose every output fact is formed from facts of
        relations that were already validated (the batch joins).
        """
        self = object.__new__(cls)
        self._schema = schema
        self._tuples = tuples
        self._events = events
        self._name = name
        return self

    def derived(
        self,
        schema: Schema,
        tuples: Iterable[TPTuple],
        name: str = "",
        check_constraint: bool = False,
    ) -> "TPRelation":
        """Create a relation over the same event space with new tuples.

        Join results are generally *not* duplicate-free in the base-relation
        sense (overlapping windows for different negative tuples may overlap
        in time for the same output fact), so the constraint check defaults
        to off for derived relations.
        """
        return TPRelation(schema, tuples, self._events, name=name, check_constraint=check_constraint)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The fact schema."""
        return self._schema

    @property
    def events(self) -> EventSpace:
        """The event space with the base-event probabilities."""
        return self._events

    @property
    def name(self) -> str:
        """Optional relation name (used by the engine catalog and EXPLAIN)."""
        return self._name

    @property
    def tuples(self) -> tuple[TPTuple, ...]:
        """The tuples, in insertion order."""
        return tuple(self._tuples)

    def __iter__(self) -> Iterator[TPTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def attribute_values(self, name: str) -> list:
        """All values of one attribute, in tuple order."""
        index = self._schema.index(name)
        return [tp_tuple.fact[index] for tp_tuple in self._tuples]

    def timespan(self) -> Optional[Interval]:
        """Smallest interval covering all tuples, or ``None`` when empty."""
        if not self._tuples:
            return None
        return Interval(
            min(tp_tuple.start for tp_tuple in self._tuples),
            max(tp_tuple.end for tp_tuple in self._tuples),
        )

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def check_duplicate_free(self) -> None:
        """Verify that same-fact tuples have pairwise disjoint intervals.

        Raises:
            ConstraintViolation: naming the offending fact and intervals.
        """
        by_fact: dict[tuple, list[TPTuple]] = {}
        for tp_tuple in self._tuples:
            by_fact.setdefault(tp_tuple.fact, []).append(tp_tuple)
        for fact, group in by_fact.items():
            ordered = sorted(group, key=lambda t: (t.start, t.end))
            for left, right in zip(ordered, ordered[1:]):
                if right.start < left.end:
                    raise ConstraintViolation(
                        f"tuples with fact {fact!r} have overlapping intervals "
                        f"{left.interval} and {right.interval}"
                    )

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def with_probabilities(self) -> "TPRelation":
        """Return a copy in which every tuple's probability is filled in."""
        computer = ProbabilityComputer(self._events)
        updated = [
            TPTuple.from_bounds(t.fact, t.lineage, t.start, t.end, computer.probability(t.lineage))
            for t in self._tuples
        ]
        return TPRelation(
            self._schema, updated, self._events, name=self._name, check_constraint=False
        )

    def filter(self, predicate: Callable[[TPTuple], bool], name: str = "") -> "TPRelation":
        """Return the sub-relation of tuples satisfying ``predicate``."""
        return TPRelation(
            self._schema,
            [t for t in self._tuples if predicate(t)],
            self._events,
            name=name or self._name,
            check_constraint=False,
        )

    def head(self, count: int) -> "TPRelation":
        """Return the first ``count`` tuples (used by dataset scaling)."""
        return TPRelation(
            self._schema,
            self._tuples[:count],
            self._events,
            name=self._name,
            check_constraint=False,
        )

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def pretty(self, max_rows: int | None = None) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = [*self._schema.attributes, "lineage", "T", "p"]
        rows = [
            [
                *("-" if value is None else str(value) for value in t.fact),
                str(t.lineage),
                str(t.interval),
                "?" if t.probability is None else f"{t.probability:.4g}",
            ]
            for t in (self._tuples if max_rows is None else self._tuples[:max_rows])
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        if max_rows is not None and len(self._tuples) > max_rows:
            lines.append(f"... ({len(self._tuples) - max_rows} more)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = self._name or "TPRelation"
        return f"<{label}: {len(self._tuples)} tuples, schema {self._schema}>"

