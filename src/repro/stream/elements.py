"""Stream elements: events, watermarks and tagged union helpers.

A continuous TP stream is an unbounded sequence of *elements*.  Two kinds of
element flow through the subsystem:

* :class:`StreamEvent` — one TP tuple becoming known to the system.  The
  tuple's validity interval lives in *event time* (the paper's time domain);
  the event additionally records the *arrival sequence number* assigned at
  ingestion, which is what makes out-of-order delivery observable.
* :class:`Watermark` — a promise by the emitting source that every event it
  will deliver from now on has an interval **starting at or after**
  ``value``.  Watermarks are what allow the incremental window maintainer to
  *finalize* output: once the combined watermark of a join has passed the end
  of a positive tuple's interval, no future event of either stream can create
  or change any of that tuple's windows.

The special value :data:`CLOSED` (+inf) closes a stream: it finalizes every
remaining window and is emitted automatically when a finite replay source is
exhausted.

The element types are frozen values built by one ``__new__`` each, the
pattern of :mod:`repro.values`: an element is made for every event and
watermark that crosses the runtime, so the frozen dataclass ``__init__``
would be a measurable share of its cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from ..relation import TPTuple
from ..values import reduce_fields, writer

_new = object.__new__

#: Watermark value that closes a stream (no further events, ever).
CLOSED: float = math.inf


@dataclass(frozen=True, slots=True, init=False)
class StreamEvent:
    """One TP tuple arriving on a stream.

    Attributes:
        tuple: the TP tuple; its interval is the event-time extent.
        sequence: arrival sequence number assigned by the ingesting source
            (0-based, monotonically increasing per source).
    """

    tuple: TPTuple
    sequence: int = 0

    def __new__(cls, tuple: TPTuple, sequence: int = 0) -> "StreamEvent":
        self = _new(_EventWriter)
        self.tuple = tuple
        self.sequence = sequence
        self.__class__ = StreamEvent
        return self

    __reduce__ = reduce_fields


_EventWriter = writer(StreamEvent)


@dataclass(frozen=True, slots=True, init=False)
class Watermark:
    """A source's promise: no future event has ``tuple.start < value``."""

    value: float

    def __new__(cls, value: float) -> "Watermark":
        self = _new(_WatermarkWriter)
        self.value = value
        self.__class__ = Watermark
        return self

    __reduce__ = reduce_fields


_WatermarkWriter = writer(Watermark)

#: Anything a stream source yields.
StreamElement = Union[StreamEvent, Watermark]

#: Side tags used when two streams are merged into one element sequence.
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True, slots=True, init=False)
class Tagged:
    """A stream element labelled with the join side it belongs to.

    ``ingest_clock`` is an optional wall-clock reading stamped where the
    element entered the system (the parallel router stamps it before the
    element can sit in a worker's buffer), so emit-latency measurements
    include queueing time.  ``None`` means "stamp at processing time" —
    correct for inline execution, where the two coincide.

    ``trace`` is an optional ``(trace_id, parent_span_id)`` pair: the
    compact trace context a sampled element carries from the source
    through worker dispatch, channel hops and the wire codecs (see
    :mod:`repro.obs.trace`).  ``None`` — the overwhelmingly common case —
    means the element is unsampled and every tracing branch is skipped.
    """

    side: str
    element: StreamElement
    ingest_clock: Optional[float] = None
    trace: Optional[tuple] = None

    def __new__(
        cls,
        side: str,
        element: StreamElement,
        ingest_clock: Optional[float] = None,
        trace: Optional[tuple] = None,
    ) -> "Tagged":
        self = _new(_TaggedWriter)
        self.side = side
        self.element = element
        self.ingest_clock = ingest_clock
        self.trace = trace
        self.__class__ = Tagged
        return self

    __reduce__ = reduce_fields


_TaggedWriter = writer(Tagged)
