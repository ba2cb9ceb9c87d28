"""Compact codecs for tuples and stream elements that leave the process.

The process and socket transports ship every routed element to a worker
and every settled output back, so the wire format matters.  Pickling the object graph directly works
— every core type is a picklable dataclass — but ships class metadata and
per-object headers for each tuple and lineage node.  This module
flattens everything into nested tuples of primitives instead:

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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

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
def encode_lineage(expr: LineageExpr, codes: Optional[Dict[int, tuple]] = None) -> tuple:
    """Flatten a lineage expression into a prefix-encoded primitive tuple.

    With ``codes`` (one per batch, see :func:`encode_tuples`) each distinct
    node object is encoded once: ``codes`` maps the ``id`` of every node
    encoded so far to its code, a later occurrence reuses that code object,
    and pickle writes a shared subtree once and refers back to it after.
    The caller keeps the nodes alive for as long as it uses ``codes``.
    """
    if codes is not None:
        code = codes.get(id(expr))
        if code is not None:
            return code
    if isinstance(expr, Var):
        code = ("v", expr.name)
    elif isinstance(expr, And):
        code = ("a", *[encode_lineage(operand, codes) for operand in expr.operands])
    elif isinstance(expr, Not):
        code = ("n", encode_lineage(expr.child, codes))
    elif isinstance(expr, Or):
        code = ("o", *[encode_lineage(operand, codes) for operand in expr.operands])
    elif expr == TRUE:
        code = ("t",)
    elif expr == FALSE:
        code = ("f",)
    else:
        raise TypeError(f"unsupported lineage node {type(expr).__name__}")
    if codes is not None:
        codes[id(expr)] = code
    return code


def decode_lineage(code: tuple, nodes: Optional[Dict[int, LineageExpr]] = None) -> LineageExpr:
    """Rebuild a lineage expression from its prefix encoding.

    With ``nodes`` (one per batch, see :func:`decode_tuples`) each distinct
    code object is decoded once — a subtree pickle wrote once arrives as
    one object and is rebuilt as one node: ``nodes`` maps the ``id`` of
    every code decoded so far to its node.  The caller keeps the codes
    alive for as long as it uses ``nodes``.
    """
    if nodes is not None:
        expr = nodes.get(id(code))
        if expr is not None:
            return expr
    tag = code[0]
    if tag == "v":
        expr = Var(code[1])
    elif tag == "a":
        expr = And(tuple([decode_lineage(part, nodes) for part in code[1:]]))
    elif tag == "n":
        expr = Not(decode_lineage(code[1], nodes))
    elif tag == "o":
        expr = Or(tuple([decode_lineage(part, nodes) for part in code[1:]]))
    elif tag == "t":
        expr = TRUE
    elif tag == "f":
        expr = FALSE
    else:
        raise ValueError(f"unknown lineage code tag {tag!r}")
    if nodes is not None:
        nodes[id(code)] = expr
    return expr


# --------------------------------------------------------------------------- #
# tuple codec
# --------------------------------------------------------------------------- #
def encode_tuple(tp_tuple: TPTuple, codes: Optional[Dict[int, tuple]] = None) -> tuple:
    """Flatten one TP tuple into primitives (``codes``: see :func:`encode_lineage`)."""
    return (
        tp_tuple.fact,
        encode_lineage(tp_tuple.lineage, codes),
        tp_tuple.start,
        tp_tuple.end,
        tp_tuple.probability,
    )


def decode_tuple(code: tuple, nodes: Optional[Dict[int, LineageExpr]] = None) -> TPTuple:
    """Rebuild one TP tuple from its encoding (``nodes``: see :func:`decode_lineage`)."""
    fact, lineage_code, start, end, probability = code
    return TPTuple.from_bounds(
        tuple(fact), decode_lineage(lineage_code, nodes), start, end, probability
    )


def encode_tuples(tuples: Iterable[TPTuple]) -> List[tuple]:
    """Encode a batch of TP tuples, each distinct lineage node once.

    The windows of one positive share their operands — ``λr``, and the
    negated disjunction of the negatives it overlaps — so the batch's codes
    share them too.  Each code equals :func:`encode_tuple`'s.
    """
    tuples = list(tuples)  # alive while ``codes`` knows their nodes
    codes: Dict[int, tuple] = {}
    return [encode_tuple(tp_tuple, codes) for tp_tuple in tuples]


def decode_tuples(codes: Iterable[tuple]) -> List[TPTuple]:
    """Decode a batch of TP tuples, each distinct lineage code once."""
    codes = list(codes)  # alive while ``nodes`` knows them
    nodes: Dict[int, LineageExpr] = {}
    return [decode_tuple(code, nodes) for code in codes]


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
