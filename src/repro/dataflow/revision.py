"""Revision streams: the element algebra flowing along dataflow edges.

A dataflow edge does not carry plain events: it carries *revisions* of an
operator's output, so downstream nodes can consume provisional results that
are later corrected.  Three revision kinds exist:

* ``EMIT`` — a tuple enters the output (first publication for its group).
* ``RETRACT`` — withdraw a previously emitted tuple, carried verbatim so the
  consumer can locate the exact state to unwind (tuple-level retraction, the
  revision-tuple model of incremental dataflow systems).
* ``REFINE`` — a replacement publication for a group that had published
  before: the operator retracted some of the group's windows and this element
  carries one of the corrected ones.  Consumers treat it exactly like
  ``EMIT`` (the state delta is identical); the distinct kind exists so
  observers can tell first publications from corrections — the retraction
  *rate* the benchmarks report.

``provisional`` flags output published *before* the watermark finalized its
group (early emission).  Provisional tuples may be retracted; settled ones
never are.  :class:`~repro.stream.elements.Watermark` elements interleave
with revisions and carry each node's **derived watermark**: the promise that
every future revision (including retractions!) concerns tuples whose
interval starts at or after the value.  It is computed as::

    min(combined input watermark,  min start of still-open positive groups)

i.e. the inputs' watermark minus the operator's current lag — exactly what a
chained operator needs to finalize its own windows soundly.

A base source is the degenerate revision stream that only ever emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from ..relation import TPTuple
from ..stream.elements import Watermark
from ..values import reduce_fields, writer

_new = object.__new__


class RevisionKind(str, Enum):
    """What a revision element does to the consumer's view of the output."""

    EMIT = "emit"
    RETRACT = "retract"
    REFINE = "refine"


@dataclass(frozen=True, slots=True, init=False)
class Revision:
    """One change to an operator's published output set.

    Built by one ``__new__`` (see :mod:`repro.values`).

    Attributes:
        kind: emit / retract / refine (see module docstring).
        tuple: the published (or withdrawn) TP tuple, verbatim.
        provisional: whether the tuple's group was still open (early
            emission) when this element was produced.
    """

    kind: RevisionKind
    tuple: TPTuple
    provisional: bool = False

    def __new__(
        cls, kind: RevisionKind, tuple: TPTuple, provisional: bool = False
    ) -> "Revision":
        self = _new(_RevisionWriter)
        self.kind = kind
        self.tuple = tuple
        self.provisional = provisional
        self.__class__ = Revision
        return self

    __reduce__ = reduce_fields

    @property
    def adds(self) -> bool:
        """Whether this revision adds the tuple to the consumer's state."""
        return self.kind is not RevisionKind.RETRACT


_RevisionWriter = writer(Revision)

#: Anything a dataflow edge carries.
RevisionElement = Union[Revision, Watermark]

