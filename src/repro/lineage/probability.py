"""Exact probability computation for lineage expressions.

The probability of a derived tuple is the probability that its lineage is
true when every base event is drawn independently with its marginal
probability.  Exact computation is #P-hard in general, but the lineages
produced by temporal-probabilistic joins have a lot of exploitable structure:

* **Independent decomposition** — if the operands of a conjunction
  (disjunction) mention pairwise disjoint sets of variables, the probability
  factorises.  Lineages like ``a1 ∧ ¬(b3 ∨ b2)`` produced by negating windows
  decompose completely this way, so the common case is linear time.
* **Shannon expansion** — when variables are shared between operands, the
  computation conditions on the most frequently shared variable and recurses
  on both cofactors, with memoisation on (expression, partial assignment)
  restrictions.

The :class:`ProbabilityComputer` implements both, and
:func:`probability` is the convenience entry point used by the relation and
join layers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping

from .events import EventSpace
from .expr import FALSE, TRUE, And, LineageExpr, Not, Or, Var
from .simplify import restrict

#: Entries the memo may hold before it is cleared.  A computer that lives as
#: long as a standing query would otherwise retain every lineage it ever
#: evaluated; clearing is always safe because a memoised float is exactly
#: the value the uncached path recomputes.
_MEMO_LIMIT = 250_000


class ProbabilityComputer:
    """Exact probability computation over a fixed :class:`EventSpace`.

    Instances memoise intermediate results keyed by the (restricted)
    sub-expressions encountered, structurally, so computing the
    probabilities of many related lineages (as a join result contains —
    ``a1 ∧ ¬(b1 ∨ b2)`` then ``a2 ∧ ¬(b1 ∨ b2)``) shares work.  The memo
    only ever returns a value it previously computed the uncached way, so
    results are bitwise-identical to a fresh computer's.
    """

    __slots__ = ("_events", "_cache", "cache_hits", "cache_misses")

    def __init__(self, events: EventSpace) -> None:
        self._events = events
        self._cache: Dict[LineageExpr, float] = {}
        # Telemetry: plain ints (an increment is cheaper than any gating
        # check would be), read by the observability layer via
        # ``probability_counters()`` on the owning maintainer.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def events(self) -> EventSpace:
        """The event space used for the marginal probabilities."""
        return self._events

    def probability(self, lineage: LineageExpr) -> float:
        """Return ``P(lineage)`` under independence of the base events."""
        self._events.validate_lineage(lineage)
        if len(self._cache) > _MEMO_LIMIT:
            self._cache.clear()
        return self._probability(lineage)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _probability(self, expr: LineageExpr) -> float:
        if expr == TRUE:
            return 1.0
        if expr == FALSE:
            return 0.0
        if isinstance(expr, Var):
            return self._events.probability(expr.name)
        cached = self._cache.get(expr)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if isinstance(expr, Not):
            value = 1.0 - self._probability(expr.child)
        elif isinstance(expr, And):
            value = self._connective(expr, is_and=True)
        elif isinstance(expr, Or):
            value = self._connective(expr, is_and=False)
        else:  # pragma: no cover - defensive, all node types handled above
            raise TypeError(f"unsupported lineage node {type(expr).__name__}")
        self._cache[expr] = value
        return value

    def _connective(self, expr: LineageExpr, is_and: bool) -> float:
        operands = expr.children()
        shared = _shared_variable(operands)
        if shared is None:
            # Independent operands: the probability factorises.
            if is_and:
                product = 1.0
                for operand in operands:
                    product *= self._probability(operand)
                return product
            complement = 1.0
            for operand in operands:
                complement *= 1.0 - self._probability(operand)
            return 1.0 - complement
        return self._shannon(expr, shared)

    def _shannon(self, expr: LineageExpr, variable: str) -> float:
        """Condition on ``variable`` and recurse on both cofactors."""
        p_true = self._events.probability(variable)
        positive = restrict(expr, {variable: True})
        negative = restrict(expr, {variable: False})
        return p_true * self._probability(positive) + (1.0 - p_true) * self._probability(
            negative
        )


def _shared_variable(operands: tuple[LineageExpr, ...]) -> str | None:
    """Return the variable shared by the most operands, or ``None``.

    ``None`` means the operands mention pairwise disjoint variable sets and
    the independence fast path applies.
    """
    counts: Counter[str] = Counter()
    for operand in operands:
        for name in operand.variables():
            counts[name] += 1
    if not counts:
        return None
    name, count = counts.most_common(1)[0]
    if count <= 1:
        return None
    return name


def probability(lineage: LineageExpr, events: EventSpace) -> float:
    """Compute ``P(lineage)`` (convenience wrapper without explicit computer)."""
    return ProbabilityComputer(events).probability(lineage)


def probabilities(
    lineages: Mapping[object, LineageExpr], events: EventSpace
) -> dict[object, float]:
    """Compute the probabilities of several lineages sharing one memo cache."""
    computer = ProbabilityComputer(events)
    return {key: computer.probability(expr) for key, expr in lineages.items()}


def conditional_probability(
    lineage: LineageExpr, given: LineageExpr, events: EventSpace
) -> float:
    """Return ``P(lineage | given)``.

    Raises:
        ZeroDivisionError: if ``P(given)`` is zero.
    """
    computer = ProbabilityComputer(events)
    joint = computer.probability(lineage & given)
    condition = computer.probability(given)
    if condition == 0.0:
        raise ZeroDivisionError("conditioning event has probability zero")
    return joint / condition
