"""Volcano-style physical operator interface.

The paper integrates the window algorithms into PostgreSQL's executor, whose
operators implement the classic open / next / close (Volcano) protocol and
therefore evaluate queries in a pipeline without materialising intermediate
results.  The :class:`PhysicalOperator` base class reproduces that contract:
``open()`` prepares the operator, ``__iter__``/``next_tuple()`` produce one
output tuple at a time, ``close()`` releases state.  Operators are also
context managers, and plain ``for`` iteration over an opened operator is the
idiomatic way to consume them.

The join operators themselves are blocking: each materialises both inputs
and runs its strategy's batch join (:class:`repro.engine.physical.
NJJoinOperator` calls :func:`repro.core.joins.tp_join`) before the first
tuple leaves.  The pipelined form of the NJ derivation — nothing buffered
beyond the current overlap group — is :func:`repro.core.joins.group_tuples`
over the one LAWAU sweep per group (:func:`repro.core.lawau.gap_sweep`) and,
unless the group's negatives never overlap one another, the one LAWAN sweep
(:func:`repro.core.lawan.negating_sweep`), which is how the continuous
operators consume it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..relation import Schema, TPTuple
from .errors import PlanError


class PhysicalOperator:
    """Base class of all physical operators (Volcano protocol)."""

    def __init__(self) -> None:
        self._opened = False

    # -- lifecycle ------------------------------------------------------- #
    def open(self) -> "PhysicalOperator":
        """Prepare the operator for iteration (recursively opens children)."""
        if self._opened:
            raise PlanError(f"{type(self).__name__} opened twice")
        self._opened = True
        for child in self.children():
            child.open()
        self._on_open()
        return self

    def close(self) -> None:
        """Release operator state (recursively closes children)."""
        if not self._opened:
            return
        self._on_close()
        for child in self.children():
            child.close()
        self._opened = False

    def __enter__(self) -> "PhysicalOperator":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- production ------------------------------------------------------ #
    def __iter__(self) -> Iterator[TPTuple]:
        if not self._opened:
            raise PlanError(
                f"{type(self).__name__} must be opened before iteration "
                "(use `with op.open():` or the executor)"
            )
        return self._produce()

    def next_tuple(self) -> Optional[TPTuple]:
        """Produce the next tuple, or ``None`` when exhausted.

        Provided for symmetry with the textbook Volcano interface; internally
        operators are generators and ``__iter__`` is the efficient path.
        """
        if not hasattr(self, "_pull_iterator"):
            self._pull_iterator = iter(self)
        return next(self._pull_iterator, None)

    # -- to be overridden -------------------------------------------------#
    def children(self) -> tuple["PhysicalOperator", ...]:
        """Child operators."""
        return ()

    def output_schema(self) -> Schema:
        """Schema of the produced tuples."""
        raise NotImplementedError

    def input_name(self) -> str:
        """The name this operator lends, as a join's right input, to columns
        clashing with the left input's; empty for a derived input."""
        return ""

    def describe(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__

    def _on_open(self) -> None:
        """Hook for subclass open-time initialisation."""

    def _on_close(self) -> None:
        """Hook for subclass close-time cleanup."""

    def _produce(self) -> Iterator[TPTuple]:
        """Yield output tuples; subclasses must implement."""
        raise NotImplementedError
