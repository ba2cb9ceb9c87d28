"""Exact probability computation for lineage expressions.

The probability of a derived tuple is the probability that its lineage is
true when every base event is drawn independently with its marginal
probability.  Exact computation is #P-hard in general, but the lineages
produced by temporal-probabilistic joins have a lot of exploitable structure:

* **The NJ shapes, factorised** — a join of base relations only ever forms
  ``λr`` (unmatched windows), ``λr ∧ λs`` (overlapping) and ``λr ∧ ¬λs`` /
  ``λr ∧ ¬(λs1 ∨ … ∨ λsn)`` (negating) over *distinct* base events.
  :meth:`ProbabilityComputer.probability` recognises exactly these four
  trees by node type and answers them from the marginals alone — no
  validation pass, no variable census, no memo.  The float operations and
  their order are the general path's, so the answer is the same to the last
  bit: ``1.0 * p(r) * p(s)``; ``p(r) * (1.0 - p(s))``; and
  ``p(r) * (1.0 - (1.0 - c))`` with ``c`` the product of ``1.0 - p(si)``
  taken left to right over the disjunction's operands from ``1.0``.  The
  algebraically equal ``p(r) * c`` is *not* that value (for marginals 0.13,
  0.85, 0.76 it reads 0.004680000000000001 against the general path's
  0.0046800000000000045), and neither is a product carried from one window
  to the next.  Anything else — a repeated name, a derived ``λr``, a third
  conjunct, an event the space does not know — takes the general path
  below, which stays the referee the shapes are property-tested against.
  The two one-negative operations are :func:`and_probability` and
  :func:`and_not_probability`, which ``_factorised`` calls for a lineage
  handed in alone; :func:`repro.core.joins.group_tuples` repeats their
  float operations inline for an overlap group of base events whose
  negatives never overlap (there every window is ``λr``, ``λr ∧ λs`` or
  ``λr ∧ ¬λs``, and ``p(r)`` is looked up once per group), and the join
  tests hold the two to the same bits.
* **Independent decomposition** — if the operands of a conjunction
  (disjunction) mention pairwise disjoint sets of variables, the probability
  factorises.  A join over derived inputs — ``(a1 ∧ c1) ∧ ¬(b3 ∨ b2)`` —
  decomposes completely this way, in linear time.
* **Shannon expansion** — when variables are shared between operands, the
  computation conditions on the most frequently shared variable and recurses
  on both cofactors, with memoisation on (expression, partial assignment)
  restrictions.

The :class:`ProbabilityComputer` implements all three, and
:func:`probability` is the convenience entry point used by the relation and
join layers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from .events import EventSpace, UnknownEventError
from .expr import FALSE, TRUE, And, LineageExpr, Not, Or, Var
from .simplify import restrict

#: Entries the memo may hold before it is cleared.  A computer that lives as
#: long as a standing query would otherwise retain every lineage it ever
#: evaluated; clearing is always safe because a memoised float is exactly
#: the value the uncached path recomputes.
_MEMO_LIMIT = 250_000


def and_probability(p_r: float, p_s: float) -> float:
    """``P(λr ∧ λs)`` of two distinct base events, from their marginals.

    The general product starts from ``1.0``, so two int marginals (certain
    base tuples) still answer a float.
    """
    return 1.0 * p_r * p_s


def and_not_probability(p_r: float, p_s: float) -> float:
    """``P(λr ∧ ¬λs)`` of two distinct base events, from their marginals."""
    return p_r * (1.0 - p_s)


class ProbabilityComputer:
    """Exact probability computation over a fixed :class:`EventSpace`.

    Instances memoise intermediate results keyed by the (restricted)
    sub-expressions encountered, structurally, so computing the
    probabilities of many related lineages (as a join over derived inputs
    contains — ``(a1 ∧ c1) ∧ ¬(b1 ∨ b2)`` then ``(a2 ∧ c1) ∧ ¬(b1 ∨ b2)``)
    shares work.  The memo only ever returns a value it previously computed
    the uncached way, so results are bitwise-identical to a fresh
    computer's.  The NJ shapes over base events (module docstring) never
    reach it: they are answered from the marginals and counted in
    ``factorised``.
    """

    __slots__ = ("_events", "_cache", "cache_hits", "cache_misses", "factorised")

    def __init__(self, events: EventSpace) -> None:
        self._events = events
        self._cache: Dict[LineageExpr, float] = {}
        # Telemetry: plain ints (an increment is cheaper than any gating
        # check would be), read by the observability layer via
        # ``probability_counters()`` on the owning maintainer.
        self.cache_hits = 0
        self.cache_misses = 0
        self.factorised = 0

    @property
    def events(self) -> EventSpace:
        """The event space used for the marginal probabilities."""
        return self._events

    def probability(self, lineage: LineageExpr) -> float:
        """Return ``P(lineage)`` under independence of the base events."""
        value = self._factorised(lineage)
        if value is not None:
            self.factorised += 1
            return value
        self._events.validate_lineage(lineage)
        if len(self._cache) > _MEMO_LIMIT:
            self._cache.clear()
        return self._probability(lineage)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _factorised(self, lineage: LineageExpr) -> float | None:
        """``P(lineage)`` for the four NJ shapes, ``None`` for anything else.

        Exact types only (a subclass may mean something else), all names
        distinct (a repeated one needs Shannon expansion), and every float
        operation the one :meth:`_probability` performs, in its order.
        """
        marginal = self._events.probability
        try:
            if type(lineage) is Var:
                return marginal(lineage.name)
            if type(lineage) is not And or len(lineage.operands) != 2:
                return None
            positive, other = lineage.operands
            if type(positive) is not Var:
                return None
            name = positive.name
            if type(other) is Var:
                if other.name == name:
                    return None
                return and_probability(marginal(name), marginal(other.name))
            if type(other) is not Not:
                return None
            negated = other.child
            if type(negated) is Var:
                if negated.name == name:
                    return None
                return and_not_probability(marginal(name), marginal(negated.name))
            if type(negated) is not Or:
                return None
            names = {name}
            complement = 1.0
            for operand in negated.operands:
                if type(operand) is not Var:
                    return None
                names.add(operand.name)
                complement *= 1.0 - marginal(operand.name)
            if len(names) <= len(negated.operands):
                return None
            return marginal(name) * (1.0 - (1.0 - complement))
        except UnknownEventError:
            # The general path names the first missing event in sorted order.
            return None

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

    Ties go to the least name.  ``variables()`` is a frozenset, whose order
    follows string hashing, so picking by count alone (as
    ``Counter.most_common`` does, first-seen among equals) would condition
    on a different variable under each ``PYTHONHASHSEED`` — and move the
    last bits of the probability with it.

    ``None`` means the operands mention pairwise disjoint variable sets and
    the independence fast path applies.
    """
    counts: Counter[str] = Counter()
    for operand in operands:
        for name in operand.variables():
            counts[name] += 1
    if not counts:
        return None
    most = max(counts.values())
    if most <= 1:
        return None
    return min(name for name, count in counts.items() if count == most)


def probability(lineage: LineageExpr, events: EventSpace) -> float:
    """Compute ``P(lineage)`` (convenience wrapper without explicit computer)."""
    return ProbabilityComputer(events).probability(lineage)


