"""Relation schemas for the non-temporal (fact) attributes.

A temporal-probabilistic tuple is ``(F, λ, T, p)``; the schema describes the
shape of ``F`` — an ordered list of named attributes.  The lineage, interval
and probability columns are implicit and managed by the data model, exactly
as in the paper where every TP relation carries the ``λ``, ``T`` and ``p``
columns in addition to its explicit attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SchemaError, UnknownAttributeError


@dataclass(frozen=True, slots=True)
class Schema:
    """An ordered collection of uniquely named fact attributes."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attribute names in schema {self.attributes}")
        if not all(self.attributes):
            raise SchemaError("attribute names must be non-empty")

    @classmethod
    def of(cls, *names: str) -> "Schema":
        """Create a schema from attribute names given as arguments."""
        return cls(tuple(names))

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def index(self, name: str) -> int:
        """Return the position of attribute ``name``.

        Raises:
            UnknownAttributeError: if the attribute is not in the schema.
        """
        try:
            return self.attributes.index(name)
        except ValueError as exc:
            raise UnknownAttributeError(
                f"attribute {name!r} not in schema {self.attributes}"
            ) from exc

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def project(self, names: Iterable[str]) -> "Schema":
        """Return a schema containing only ``names``, in the given order."""
        selected = tuple(names)
        for name in selected:
            if name not in self.attributes:
                raise UnknownAttributeError(
                    f"attribute {name!r} not in schema {self.attributes}"
                )
        return Schema(selected)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with some attributes renamed."""
        for old in mapping:
            if old not in self.attributes:
                raise UnknownAttributeError(
                    f"attribute {old!r} not in schema {self.attributes}"
                )
        return Schema(tuple(mapping.get(name, name) for name in self.attributes))

    def validate_fact(self, fact: tuple) -> None:
        """Check that a fact tuple has the right arity."""
        if len(fact) != len(self.attributes):
            raise SchemaError(
                f"fact {fact!r} has {len(fact)} values, schema expects "
                f"{len(self.attributes)} ({self.attributes})"
            )

    def __str__(self) -> str:
        return "(" + ", ".join(self.attributes) + ")"
