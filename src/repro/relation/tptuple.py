"""Temporal-probabilistic tuples.

A TP tuple is ``(F, λ, T, p)``: a fact, a lineage expression, a half-open
validity interval and the marginal probability of the lineage.  Base tuples
carry a fresh event variable as their lineage and their probability is given;
derived tuples (join results) carry composite lineages and their probability
is computed from the event space.

The interval is stored as its two bounds, ``start`` and ``end``; the
:attr:`TPTuple.interval` property builds an :class:`~repro.temporal.Interval`
only when asked for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lineage import LineageExpr, Var
from ..temporal import Interval, IntervalError
from ..values import writer

_new = object.__new__


@dataclass(frozen=True, slots=True, init=False)
class TPTuple:
    """One temporal-probabilistic tuple.

    Constructed as ``TPTuple(fact, lineage, interval, probability=None)``, or
    from the bounds by :meth:`from_bounds`, which every construction ends in.

    Attributes:
        fact: the non-temporal attribute values, in schema order.  Outer-join
            results use ``None`` for the padded attributes of the unmatched
            side, mirroring the ``-`` entries in the paper's Fig. 1b.
        lineage: Boolean lineage over independent base events.
        start: inclusive start of the half-open validity interval.
        end: exclusive end of the validity interval, greater than ``start``.
        probability: marginal probability of the lineage, if already known.
            ``None`` means "not yet computed"; use
            :meth:`TPRelation.with_probabilities` to fill it in.
    """

    fact: tuple
    lineage: LineageExpr
    start: int
    end: int
    probability: Optional[float] = None

    def __new__(
        cls,
        fact: tuple,
        lineage: LineageExpr,
        interval: Optional[Interval] = None,
        probability: Optional[float] = None,
        *,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> "TPTuple":
        # ``start``/``end`` by keyword is the form ``dataclasses.replace`` uses.
        if interval is not None:
            start, end = interval.start, interval.end
        elif start is None or end is None:
            raise TypeError("TPTuple needs an interval, or start and end")
        return TPTuple.from_bounds(fact, lineage, start, end, probability)

    @staticmethod
    def from_bounds(
        fact: tuple,
        lineage: LineageExpr,
        start: int,
        end: int,
        probability: Optional[float] = None,
    ) -> "TPTuple":
        """The tuple valid over ``[start, end)``, with no interval object."""
        if end <= start:
            raise IntervalError.empty(start, end)
        self = _new(_Writer)
        self.fact = fact
        self.lineage = lineage
        self.start = start
        self.end = end
        self.probability = probability
        self.__class__ = TPTuple
        return self

    def __reduce__(self):
        return TPTuple.from_bounds, (
            self.fact, self.lineage, self.start, self.end, self.probability
        )

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

    def with_interval(self, interval: Interval) -> "TPTuple":
        """Return a copy valid over a different interval (same fact/lineage)."""
        return TPTuple(self.fact, self.lineage, interval, self.probability)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def value(self, schema_index: int):
        """Return the fact value at a schema position."""
        return self.fact[schema_index]

    @property
    def interval(self) -> Interval:
        """The validity interval ``[start, end)``, built on each access."""
        return Interval(self.start, self.end)

    def identity(self) -> tuple:
        """The tuple's structural identity ``(fact, start, end, lineage)``.

        Hashable and comparable without rendering anything to text (lineage
        nodes are frozen dataclasses), which is what per-element paths use
        to recognise a tuple again; the probability is a function of the
        lineage and takes no part.  :meth:`key` is the *ordering* and is
        paid where a deterministic order is needed.
        """
        return (self.fact, self.start, self.end, self.lineage)

    def key(self) -> tuple:
        """A deterministic sort/identity key (fact, interval, lineage text).

        ``None`` fact values (outer-join padding) sort after any string, so
        keys stay comparable across padded and non-padded tuples.
        """
        fact_key = tuple((value is None, "" if value is None else str(value)) for value in self.fact)
        return (fact_key, self.start, self.end, str(self.lineage))

    def key_prefix(self) -> tuple:
        """:meth:`key` short of its last component, the rendered lineage.

        What a sort compares first; only tuples that tie here need the full
        key (see :func:`repro.parallel.batch.canonical_order`).
        """
        fact_key = tuple((value is None, "" if value is None else str(value)) for value in self.fact)
        return (fact_key, self.start, self.end)

    def __str__(self) -> str:
        fact = ", ".join("-" if value is None else str(value) for value in self.fact)
        probability = "?" if self.probability is None else f"{self.probability:.4g}"
        return f"({fact} | {self.lineage} | [{self.start},{self.end}) | {probability})"


_Writer = writer(TPTuple)
