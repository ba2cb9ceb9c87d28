"""Event space: probabilities of the independent base events.

Every base tuple of a temporal-probabilistic relation introduces one Boolean
event variable; the variables of different base tuples are independent.  The
:class:`EventSpace` records the marginal probability of each variable and is
the single source of truth consulted by the exact and approximate probability
computations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping

from .expr import LineageExpr


class UnknownEventError(KeyError):
    """Raised when a lineage references an event with no recorded probability."""


class InvalidProbabilityError(ValueError):
    """Raised when a probability outside ``[0, 1]`` is registered."""


class EventSpace:
    """A mapping from event-variable names to marginal probabilities.

    The space is mutable (relations register their tuples' events when they
    are created) but registration is idempotent only when the probability is
    unchanged; re-registering an event with a different probability raises,
    because it almost certainly indicates two distinct tuples accidentally
    sharing a variable name.
    """

    __slots__ = ("_probabilities",)

    def __init__(self, probabilities: Mapping[str, float] | None = None) -> None:
        self._probabilities: Dict[str, float] = {}
        if probabilities:
            for name, probability in probabilities.items():
                self.register(name, probability)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, probability: float) -> None:
        """Record the marginal probability of event ``name``.

        Raises:
            InvalidProbabilityError: if ``probability`` is outside ``[0, 1]``.
            ValueError: if ``name`` is already registered with a different
                probability.
        """
        if not 0.0 <= probability <= 1.0:
            raise InvalidProbabilityError(
                f"probability of event {name!r} must be in [0, 1], got {probability}"
            )
        existing = self._probabilities.get(name)
        if existing is not None and existing != probability:
            raise _conflict(name, existing, probability)
        self._probabilities[name] = probability

    def merge(self, other: "EventSpace") -> "EventSpace":
        """Return a new space containing the events of both spaces.

        Both spaces validated their values when they registered them, so
        only the names they share are checked, and the first that
        conflicts, in ``other``'s order, raises as :meth:`register` does.
        Two spaces over one mapping (the relations of one generated pair
        share theirs) cannot conflict: it is copied unchecked.
        """
        mine, theirs = self._probabilities, other._probabilities
        merged = EventSpace()
        if mine is theirs:
            merged._probabilities = mine.copy()
            return merged
        for name in mine.keys() & theirs.keys():
            if mine[name] != theirs[name]:
                name = next(n for n in theirs if n in mine and mine[n] != theirs[n])
                raise _conflict(name, mine[name], theirs[name])
        merged._probabilities = mine | theirs
        return merged

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def probability(self, name: str) -> float:
        """Return the marginal probability of event ``name``."""
        try:
            return self._probabilities[name]
        except KeyError as exc:
            raise UnknownEventError(name) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._probabilities

    def __len__(self) -> int:
        return len(self._probabilities)

    def __iter__(self) -> Iterator[str]:
        return iter(self._probabilities)

    def names(self) -> list[str]:
        """Return all registered event names (sorted, for determinism)."""
        return sorted(self._probabilities)

    def as_dict(self) -> dict[str, float]:
        """Return a copy of the underlying mapping."""
        return dict(self._probabilities)

    def validate_lineage(self, lineage: LineageExpr) -> None:
        """Check that every variable of ``lineage`` has a registered probability.

        Raises:
            UnknownEventError: naming the first missing variable.
        """
        for name in sorted(lineage.variables()):
            if name not in self._probabilities:
                raise UnknownEventError(name)

    def restrict(self, names: Iterable[str]) -> "EventSpace":
        """Return a new space containing only the given events."""
        subset = {}
        for name in names:
            subset[name] = self.probability(name)
        return EventSpace(subset)


def _conflict(name: str, existing: float, probability: float) -> ValueError:
    """The error for an event re-registered with a different probability."""
    return ValueError(
        f"event {name!r} already registered with probability {existing}, "
        f"refusing to overwrite with {probability}"
    )
