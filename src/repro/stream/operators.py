"""The continuous TP join, as a caller that reads finalized tuples sees it.

There is one continuous operator, :class:`~repro.dataflow.operators.
RevisionJoin`, and every dataflow node — a stream query's one node included
— runs it.  :class:`ContinuousJoin` is that operator with ``read=False`` as
its default: nothing reads its output as it leaves, so it wraps nothing.
It consumes :class:`~repro.stream.elements.Tagged` stream elements (events
and watermarks of either side) and returns *finalized* output tuples from
``process`` and ``close``: each output is produced exactly once, when the
combined watermark passes the end of its originating positive tuple, and is
never retracted.  Window derivation and tuple formation are the batch
derivation itself (:func:`repro.core.joins.group_tuples`), applied to each
completed overlap group, so a continuous run over any delivery order (within
the lateness bound) emits exactly the batch join's output set.

Per-group emit latency — the wall-clock span between the ingestion of a
positive event and the emission of its finalized outputs — is recorded in
``emit_latencies`` for the benchmarks.
"""

from __future__ import annotations

from typing import Sequence

from ..dataflow.operators import RevisionJoin
from ..relation import Schema, ThetaCondition, theta_or_true


def theta_from_pairs(
    left_schema: Schema,
    right_schema: Schema,
    on: Sequence[tuple[str, str]],
) -> ThetaCondition:
    """Build the θ condition for ``(left_attr, right_attr)`` equality pairs."""
    return theta_or_true(left_schema, right_schema, on)


class ContinuousJoin(RevisionJoin):
    """A :class:`~repro.dataflow.operators.RevisionJoin` nothing reads.

    Takes the same arguments; only ``read`` defaults to ``False``, so
    ``process`` and ``close`` return finalized :class:`~repro.relation.
    TPTuple` objects and no watermarks.
    """

    def __init__(
        self,
        kind: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]] = (),
        *,
        read: bool = False,
        **options,
    ) -> None:
        super().__init__(kind, left_schema, right_schema, on, read=read, **options)


#: The factory name the benchmark of record builds the operator by.
continuous_join = ContinuousJoin
