"""Compact codecs for stream elements that leave the process.

The process and socket transports ship every routed element to a worker in
micro-batch frames, so the element wire format matters.  This module
flattens each element into nested tuples of primitives, which pickle writes
without a class lookup or a reducer call per object:

* a lineage expression becomes a prefix-encoded tuple tree
  (``("v", name)`` / ``("n", child)`` / ``("a", op1, op2, ...)`` /
  ``("o", ...)`` / ``("t",)`` / ``("f",)``), which pickles to a fraction of
  the dataclass graph's size and needs no class lookups to decode;
* a TP tuple becomes ``(fact, lineage_code, start, end, probability)``;
* stream elements become ``("e", side, sequence, tuple_code, clock)`` and
  ``("w", side, value)`` records.

Schemas and event probabilities travel as plain tuples/dicts.  Decoding
rebuilds the exact original values — codecs are inverse bijections, tested
round-trip — so workers operate on full-fidelity TP tuples.

Settled output goes the other way as the objects themselves: a worker
report's tuple list (and a checkpoint's) is pickled as is.  Pickle's memo
writes a lineage node that many windows share — ``λr``, or one negated
disjunction — once, and unpickling rebuilds the objects from C through the
value types' reducers (:mod:`repro.values`).  Element frames keep this
codec because, on micro-batches, pickling the objects encodes about twice
as slowly and decodes no faster.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..lineage import FALSE, TRUE, And, EventSpace, LineageExpr, Not, Or, Var
from ..relation import TPTuple
from ..stream.elements import LEFT, RIGHT, StreamEvent, Tagged, Watermark

#: ``(Revision, kinds by wire code, wire code by kind)``.  Codes are enum
#: definition order, so the wire order can never drift from RevisionKind's
#: definition.  Resolved once per process on first use: repro.dataflow
#: imports this package's stream codecs, so a module-level import here would
#: be circular during package init.
_REVISION_CODEC: tuple = ()


def _revision_codec() -> tuple:
    global _REVISION_CODEC
    if not _REVISION_CODEC:
        from ..dataflow.revision import Revision, RevisionKind

        kinds = tuple(RevisionKind)
        _REVISION_CODEC = (
            Revision,
            kinds,
            {kind: code for code, kind in enumerate(kinds)},
        )
    return _REVISION_CODEC


def revision_kind_codes() -> int:
    """How many revision kinds exist: valid wire codes are ``0..count-1``.

    The benchmark-only binary codec (:mod:`repro.runtime.wire`) validates a decoded
    revision row's kind byte against this count so a corrupt frame raises a
    clean error instead of failing later inside ``decode_revision_tagged``.
    """
    return len(_revision_codec()[1])

# --------------------------------------------------------------------------- #
# lineage codec
# --------------------------------------------------------------------------- #
def encode_lineage(expr: LineageExpr) -> tuple:
    """Flatten a lineage expression into a prefix-encoded primitive tuple."""
    if isinstance(expr, Var):
        return ("v", expr.name)
    if isinstance(expr, And):
        return ("a", *[encode_lineage(operand) for operand in expr.operands])
    if isinstance(expr, Not):
        return ("n", encode_lineage(expr.child))
    if isinstance(expr, Or):
        return ("o", *[encode_lineage(operand) for operand in expr.operands])
    if expr == TRUE:
        return ("t",)
    if expr == FALSE:
        return ("f",)
    raise TypeError(f"unsupported lineage node {type(expr).__name__}")


def decode_lineage(code: tuple) -> LineageExpr:
    """Rebuild a lineage expression from its prefix encoding."""
    tag = code[0]
    if tag == "v":
        return Var(code[1])
    if tag == "a":
        return And(tuple([decode_lineage(part) for part in code[1:]]))
    if tag == "n":
        return Not(decode_lineage(code[1]))
    if tag == "o":
        return Or(tuple([decode_lineage(part) for part in code[1:]]))
    if tag == "t":
        return TRUE
    if tag == "f":
        return FALSE
    raise ValueError(f"unknown lineage code tag {tag!r}")


# --------------------------------------------------------------------------- #
# tuple codec
# --------------------------------------------------------------------------- #
def encode_tuple(tp_tuple: TPTuple) -> tuple:
    """Flatten one TP tuple into primitives."""
    return (
        tp_tuple.fact,
        encode_lineage(tp_tuple.lineage),
        tp_tuple.start,
        tp_tuple.end,
        tp_tuple.probability,
    )


def decode_tuple(code: tuple) -> TPTuple:
    """Rebuild one TP tuple from its encoding."""
    fact, lineage_code, start, end, probability = code
    return TPTuple.from_bounds(tuple(fact), decode_lineage(lineage_code), start, end, probability)


# --------------------------------------------------------------------------- #
# stream element codec
# --------------------------------------------------------------------------- #
def encode_tagged(tagged: Tagged) -> tuple:
    """Flatten one tagged stream element (event or watermark).

    A sampled element's trace context rides as one extra trailing field —
    appended only when present, so untraced runs ship the exact pre-trace
    wire shape and decoders accept both lengths.
    """
    side_code = 0 if tagged.side == LEFT else 1
    element = tagged.element
    if isinstance(element, StreamEvent):
        code = ("e", side_code, element.sequence, encode_tuple(element.tuple), tagged.ingest_clock)
        return code if tagged.trace is None else code + (tagged.trace,)
    if isinstance(element, Watermark):
        return ("w", side_code, element.value)
    raise TypeError(f"unsupported stream element {element!r}")


def decode_tagged(code: tuple) -> Tagged:
    """Rebuild one tagged stream element from its encoding."""
    side = LEFT if code[1] == 0 else RIGHT
    if code[0] == "e":
        _tag, _side, sequence, tuple_code, clock = code[:5]
        trace = code[5] if len(code) > 5 else None
        return Tagged(
            side, StreamEvent(decode_tuple(tuple_code), sequence=sequence), clock, trace
        )
    if code[0] == "w":
        return Tagged(side, Watermark(code[2]))
    raise ValueError(f"unknown element code tag {code[0]!r}")


# --------------------------------------------------------------------------- #
# revision-stream element codec (dataflow edges)
# --------------------------------------------------------------------------- #
def encode_revision_tagged(tagged: Tagged) -> tuple:
    """Flatten one tagged dataflow element (revision, event or watermark).

    Revisions become ``("r", side, kind_code, provisional, tuple_code,
    clock)`` — plus one trailing trace-context field when the element is
    sampled; events and watermarks keep the stream-element encoding, so a
    source edge and a node edge share one wire format.
    """
    revision_class, _kinds, codes = _revision_codec()
    element = tagged.element
    if isinstance(element, revision_class):
        side_code = 0 if tagged.side == LEFT else 1
        code = (
            "r",
            side_code,
            codes[element.kind],
            element.provisional,
            encode_tuple(element.tuple),
            tagged.ingest_clock,
        )
        return code if tagged.trace is None else code + (tagged.trace,)
    return encode_tagged(tagged)


def decode_revision_tagged(code: tuple) -> Tagged:
    """Rebuild one tagged dataflow element from its encoding."""
    if code[0] != "r":
        return decode_tagged(code)
    revision_class, kinds, _codes = _revision_codec()
    _tag, side_code, kind_code, provisional, tuple_code, clock = code[:6]
    trace = code[6] if len(code) > 6 else None
    side = LEFT if side_code == 0 else RIGHT
    revision = revision_class(
        kinds[kind_code],
        decode_tuple(tuple_code),
        provisional=provisional,
    )
    return Tagged(side, revision, clock, trace)


# --------------------------------------------------------------------------- #
# event spaces
# --------------------------------------------------------------------------- #
def events_from_probabilities(probabilities: Optional[Dict[str, float]]) -> EventSpace:
    """Rebuild an event space from a shipped probability mapping."""
    return EventSpace(probabilities or {})
