"""Temporal-probabilistic tuples.

A TP tuple is ``(F, λ, T, p)``: a fact, a lineage expression, a half-open
validity interval and the marginal probability of the lineage.  Base tuples
carry a fresh event variable as their lineage and their probability is given;
derived tuples (join results) carry composite lineages and their probability
is computed from the event space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..lineage import EventSpace, LineageExpr, ProbabilityComputer, Var
from ..temporal import Interval


@dataclass(frozen=True, slots=True)
class TPTuple:
    """One temporal-probabilistic tuple.

    Attributes:
        fact: the non-temporal attribute values, in schema order.  Outer-join
            results use ``None`` for the padded attributes of the unmatched
            side, mirroring the ``-`` entries in the paper's Fig. 1b.
        lineage: Boolean lineage over independent base events.
        interval: half-open validity interval.
        probability: marginal probability of the lineage, if already known.
            ``None`` means "not yet computed"; use :meth:`with_probability`
            or :class:`TPRelation.with_probabilities` to fill it in.
    """

    fact: tuple
    lineage: LineageExpr
    interval: Interval
    probability: Optional[float] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def base(
        cls,
        fact: tuple,
        event: str,
        interval: Interval,
        probability: float,
    ) -> "TPTuple":
        """Create a base tuple whose lineage is a single fresh event variable."""
        return cls(tuple(fact), Var(event), interval, probability)

    def with_probability(self, events: EventSpace) -> "TPTuple":
        """Return a copy with the probability computed from ``events``."""
        computer = ProbabilityComputer(events)
        return replace(self, probability=computer.probability(self.lineage))

    def with_interval(self, interval: Interval) -> "TPTuple":
        """Return a copy valid over a different interval (same fact/lineage)."""
        return replace(self, interval=interval)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def value(self, schema_index: int):
        """Return the fact value at a schema position."""
        return self.fact[schema_index]

    @property
    def start(self) -> int:
        """Inclusive start of the validity interval."""
        return self.interval.start

    @property
    def end(self) -> int:
        """Exclusive end of the validity interval."""
        return self.interval.end

    def identity(self) -> tuple:
        """The tuple's structural identity ``(fact, start, end, lineage)``.

        Hashable and comparable without rendering anything to text (lineage
        nodes are frozen dataclasses), which is what per-element paths use
        to recognise a tuple again; the probability is a function of the
        lineage and takes no part.  :meth:`key` is the *ordering* and is
        paid where a deterministic order is needed.
        """
        interval = self.interval
        return (self.fact, interval.start, interval.end, self.lineage)

    def key(self) -> tuple:
        """A deterministic sort/identity key (fact, interval, lineage text).

        ``None`` fact values (outer-join padding) sort after any string, so
        keys stay comparable across padded and non-padded tuples.
        """
        fact_key = tuple((value is None, "" if value is None else str(value)) for value in self.fact)
        return (fact_key, self.interval.start, self.interval.end, str(self.lineage))

    def key_prefix(self) -> tuple:
        """:meth:`key` short of its last component, the rendered lineage.

        What a sort compares first; only tuples that tie here need the full
        key (see :func:`repro.parallel.batch.canonical_order`).
        """
        fact_key = tuple((value is None, "" if value is None else str(value)) for value in self.fact)
        return (fact_key, self.interval.start, self.interval.end)

    def __str__(self) -> str:
        fact = ", ".join("-" if value is None else str(value) for value in self.fact)
        probability = "?" if self.probability is None else f"{self.probability:.4g}"
        return f"({fact} | {self.lineage} | {self.interval} | {probability})"
