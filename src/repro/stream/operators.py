"""Continuous TP join operators over watermarked element streams.

:class:`ContinuousJoin` is the continuous counterpart of the batch joins,
one class parametrised by ``kind``.  Which windows a kind keeps is stated
once, in :data:`repro.core.joins.TABLE_II`, and every finalized overlap
group is turned into output tuples by the same
:func:`repro.core.joins.group_tuples` the batch joins call.

The kinds that keep *reverse* windows (:data:`~repro.core.joins.
REVERSE_KINDS`: the unmatched and negating windows of ``s`` with respect to
``r``) run a second, mirrored :class:`~repro.stream.incremental.
IncrementalWindowMaintainer` whose positive side is the right stream (θ
swapped), while the overlapping windows keep coming from the forward
maintainer so output lineages are constructed operand-for-operand like the
batch joins build them (which keeps probabilities bitwise-comparable).

The operator consumes :class:`~repro.stream.elements.Tagged` stream elements
(events and watermarks of either side) and emits *finalized* output tuples:
each output is produced exactly once, when the combined watermark passes the
end of its originating positive tuple, and is never retracted.  Window
derivation and tuple formation are the batch derivation itself, applied to
each completed overlap group, so a continuous run over any delivery order
(within the lateness bound) emits exactly the batch join's output set.

The retractable, early-emitting :class:`~repro.dataflow.operators.
RevisionJoin` is a subclass: it shares the constructor, the maintainers,
the routing of watermarks into them and the group → tuples → probabilities
step, and replaces only the output half.

With ``materialize_probabilities=True`` (requires the merged event space)
output probabilities are computed inline by the maintainer-owned
:class:`~repro.lineage.ProbabilityComputer` — one computer per maintainer,
whose memo is shared by all its windows; the values stay bitwise-identical
to a fresh per-tuple computation.  That is what lets one watermark's
finalized groups of one side, whatever their keys, be derived by a single
:func:`~repro.core.joins.group_tuples` call.

Per-tuple emit latency — the wall-clock span between the ingestion of a
positive event and the emission of its finalized outputs — is recorded in
:attr:`ContinuousJoin.emit_latencies` for the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.joins import (
    JOIN_SYMBOLS,
    REVERSE_KINDS,
    group_tuples,
    join_output_schema,
    swap_theta,
)
from ..core.overlap import OverlapGroup
from ..lineage import EventSpace
from ..relation import Schema, TPTuple, ThetaCondition, theta_or_true
from .elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark
from .incremental import FinalizedGroup, IncrementalWindowMaintainer


@dataclass
class OperatorStats:
    """Output-side counters of one continuous operator."""

    outputs_emitted: int = 0
    groups_finalized: int = 0


def theta_from_pairs(
    left_schema: Schema,
    right_schema: Schema,
    on: Sequence[tuple[str, str]],
) -> ThetaCondition:
    """Build the θ condition for ``(left_attr, right_attr)`` equality pairs."""
    return theta_or_true(left_schema, right_schema, on)


class ContinuousJoin:
    """A continuous TP join of one ``kind`` with watermark-driven finalization.

    Args:
        kind: one of :data:`repro.core.joins.JOIN_KINDS`; kinds in
            :data:`~repro.core.joins.REVERSE_KINDS` additionally run the
            mirrored reverse maintainer.
        left_schema / right_schema: input schemas.
        on: ``(left_attribute, right_attribute)`` equality pairs (θ).
        events: merged event space of every source feeding this operator
            (required for ``materialize_probabilities``).
        materialize_probabilities: compute output tuples' probabilities
            inline via the maintainer-owned computers, one per maintainer.
    """

    def __init__(
        self,
        kind: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]] = (),
        *,
        left_name: str = "r",
        right_name: str = "s",
        events: Optional[EventSpace] = None,
        materialize_probabilities: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if materialize_probabilities and events is None:
            raise ValueError("materialize_probabilities requires an event space")
        self.kind = kind
        # Raises ``ValueError`` for a kind Table II does not list.
        self._schema = join_output_schema(kind, left_schema, right_schema, right_name)
        self._widths = len(left_schema), len(right_schema)
        self._theta = theta_from_pairs(left_schema, right_schema, on)
        self._left_name = left_name
        self._right_name = right_name
        self._clock = clock
        self._materialize = materialize_probabilities
        self._forward = IncrementalWindowMaintainer(self._theta, events=events)
        self._reverse: Optional[IncrementalWindowMaintainer] = (
            IncrementalWindowMaintainer(swap_theta(self._theta), events=events)
            if kind in REVERSE_KINDS
            else None
        )
        self.stats = OperatorStats()
        #: Per finalized positive tuple: seconds from ingestion to emission.
        self.emit_latencies: List[float] = []

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def theta(self) -> ThetaCondition:
        return self._theta

    @property
    def maintainer(self) -> IncrementalWindowMaintainer:
        """The forward incremental window state (exposed for monitoring)."""
        return self._forward

    @property
    def reverse_maintainer(self) -> Optional[IncrementalWindowMaintainer]:
        """The mirrored maintainer of right/full outer joins (else ``None``)."""
        return self._reverse

    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        return (
            f"ContinuousJoin[{self._left_name} {JOIN_SYMBOLS[self.kind]} "
            f"{self._right_name}] on {self._theta.describe()}"
        )

    # ------------------------------------------------------------------ #
    # element processing
    # ------------------------------------------------------------------ #
    def process(self, tagged: Tagged) -> List[TPTuple]:
        """Apply one tagged element; return any newly finalized output tuples."""
        element = tagged.element
        if isinstance(element, StreamEvent):
            if tagged.side == LEFT:
                # Emit latency is measured per positive-group finalization, so
                # only sides acting as a positive pay for a clock reading; a
                # router-stamped clock wins so buffered queueing is included.
                now = (
                    tagged.ingest_clock
                    if tagged.ingest_clock is not None
                    else self._clock()
                )
                self._forward.add_positive(element.tuple, ingest_clock=now)
                if self._reverse is not None:
                    self._reverse.add_negative(element.tuple)
            elif tagged.side == RIGHT:
                self._forward.add_negative(element.tuple)
                if self._reverse is not None:
                    now = (
                        tagged.ingest_clock
                        if tagged.ingest_clock is not None
                        else self._clock()
                    )
                    self._reverse.add_positive(element.tuple, ingest_clock=now)
            else:
                raise ValueError(f"unknown stream side {tagged.side!r}")
            return []
        if isinstance(element, Watermark):
            return self._emit(*self._advance(tagged.side, element.value))
        raise TypeError(f"unsupported stream element {element!r}")

    def run(self, tagged_elements: Iterable[Tagged]) -> Iterator[TPTuple]:
        """Drive the operator over a merged element sequence, then close it."""
        for tagged in tagged_elements:
            yield from self.process(tagged)
        yield from self.close()

    def close(self) -> List[TPTuple]:
        """Finalize all remaining windows (both sides closed)."""
        return self._emit(
            self._forward.close(), self._reverse.close() if self._reverse else ()
        )

    # ------------------------------------------------------------------ #
    # shared with the retractable subclass
    # ------------------------------------------------------------------ #
    def _advance(
        self, side: str, value: float
    ) -> Tuple[Sequence[FinalizedGroup], Sequence[FinalizedGroup]]:
        """Route one side's watermark into both maintainers.

        Returns the groups it finalized, forward then reverse (the mirrored
        maintainer sees the sides swapped).
        """
        if side == LEFT:
            return (
                self._forward.advance_left(value),
                self._reverse.advance_right(value) if self._reverse else (),
            )
        if side == RIGHT:
            return (
                self._forward.advance_right(value),
                self._reverse.advance_left(value) if self._reverse else (),
            )
        raise ValueError(f"unknown stream side {side!r}")

    def _derive(self, is_reverse: bool, groups: Iterable[OverlapGroup]) -> Iterator[TPTuple]:
        """The output tuples of one side's ``groups``, group by group, with
        probabilities if materialized: one :func:`group_tuples` pass."""
        computer = None
        if self._materialize:
            computer = (self._reverse if is_reverse else self._forward).computer
        return group_tuples(
            self.kind, groups, *self._widths, reverse=is_reverse, computer=computer
        )

    # ------------------------------------------------------------------ #
    # output formation
    # ------------------------------------------------------------------ #
    def _emit(
        self,
        finalized: Sequence[FinalizedGroup],
        finalized_reverse: Sequence[FinalizedGroup],
    ) -> List[TPTuple]:
        outputs: List[TPTuple] = []
        if not finalized and not finalized_reverse:
            return outputs
        emit_clock = self._clock()
        latencies = self.emit_latencies
        for is_reverse, groups in ((False, finalized), (True, finalized_reverse)):
            if not groups:
                continue
            for group in groups:
                latencies.append(max(0.0, emit_clock - group.ingest_clock))
            self.stats.groups_finalized += len(groups)
            outputs.extend(self._derive(is_reverse, [group.group for group in groups]))
        self.stats.outputs_emitted += len(outputs)
        return outputs


#: The factory name worker specs and the benchmark of record build operators by.
continuous_join = ContinuousJoin
