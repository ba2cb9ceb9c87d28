"""Fixed-layout binary codec for socket micro-batch frames: a benchmark-only referee.

No run path imports this module: every socket frame is a pickle
(:mod:`repro.runtime.sockets`).  tpbench's layer replay times this codec
against pickle on the same batches (its ``runtime.wire.*`` rows), and the
module goes together with those rows.

``encode_batch_frame`` lays a batch of element codes
(:mod:`repro.parallel.serialize` shapes) out as a fixed header plus
dtype-tagged numeric columns — one u8/i64/f64 buffer per field across all
rows (element tag, side, revision kind, flags, sequence, interval
start/end, probability, ingest clock) — followed by a variable-length
section for the dynamic values (channel ids, facts, lineage codes,
watermark values, trace contexts).  ``decode_batch_frame`` reads the
numeric columns with ``numpy.frombuffer`` (a pure-``struct`` fallback
keeps numpy optional) and rebuilds the exact code tuples that went in —
the codec is a bijection on the element codes, property-tested round-trip.

Every read is bounds-checked: a truncated or corrupt frame raises
:class:`WireFormatError` with a reason.  A batch the fixed layout cannot
express (an exotic fact value, an int-typed clock) raises it on encode.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

try:  # pragma: no cover - numpy is optional
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireFormatError",
    "decode_batch_frame",
    "encode_batch_frame",
]

#: First byte of every binary frame; decoding rejects any other.
WIRE_MAGIC = 0x43  # 'C' for column

#: Bumped whenever the frame layout changes; decoding rejects mismatches.
WIRE_VERSION = 1

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Element-tag byte per code-tuple tag.
_ETAG_WATERMARK = 0
_ETAG_EVENT = 1
_ETAG_REVISION = 2

#: Flag bits of the per-row flags column.
_FLAG_TRACE = 1
_FLAG_CLOCK = 2
_FLAG_PROB = 4
_FLAG_PROVISIONAL = 8

#: Revision-kind column value for non-revision rows.
_NO_KIND = 255

#: dtype tags of the numeric column blocks.
_DTYPE_U8 = 1
_DTYPE_I64 = 2
_DTYPE_F64 = 3

_HEADER = struct.Struct("!BBHI")  # magic, version, job-key length, row count
_U32 = struct.Struct("!I")
_BLOCK = struct.Struct("!BI")  # dtype tag, payload byte length
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


class WireFormatError(ValueError):
    """A frame could not be binary-encoded, or failed to decode cleanly."""


# --------------------------------------------------------------------------- #
# generic value codec (variable-length section)
# --------------------------------------------------------------------------- #
def _memo_key(value: Any):
    """A type- and bit-exact hashable key for the per-frame memo.

    Plain equality is too coarse for a codec that must round-trip exactly:
    ``("a", 1) == ("a", True)`` and ``0.0 == -0.0``, but decoding one as
    the other would corrupt the stream.  Keys therefore tag every leaf
    with its type and use the f64 bit pattern for floats.  Raises
    ``TypeError`` for unhashable contents (tuples holding lists/dicts),
    which simply exempts that value from memoization.
    """
    kind = type(value)
    if kind is str:
        return ("s", value)
    if kind is tuple:
        return ("t",) + tuple(_memo_key(item) for item in value)
    if kind is bool:
        return ("b", value)
    if kind is int:
        return ("i", value)
    if kind is float:
        return ("f", _F64.pack(value))
    if kind is bytes:
        return ("y", value)
    if value is None:
        return ("n",)
    raise TypeError(f"not memoizable: {kind.__name__}")


def _pack_value(value: Any, out: List[bytes], memo: dict) -> None:
    """Append the tagged encoding of one dynamic value.

    Covers exactly the types that appear in element codes: ``None``, bools,
    ints, floats, strings, bytes, and tuples/lists/dicts of the same.
    Anything else raises :class:`WireFormatError` for the whole batch.

    Strings and tuples are memoized per frame: repeats (channel ids every
    row, the few distinct join-key strings of a batch) encode as a 5-byte
    back-reference (``R`` + index) instead of their full bytes, mirroring
    pickle's memo.  The decoder rebuilds the same memo in the same order.
    """
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
            out.append(b"I")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif type(value) is float:
        out.append(b"f")
        out.append(_F64.pack(value))
    elif type(value) is str:
        index = memo.get(("s", value))
        if index is not None:
            out.append(b"R")
            out.append(_U32.pack(index))
            return
        raw = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
        memo[("s", value)] = len(memo)
    elif type(value) is bytes:
        out.append(b"y")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif type(value) is tuple:
        try:
            key = _memo_key(value)
        except TypeError:
            key = None
        if key is not None:
            index = memo.get(key)
            if index is not None:
                out.append(b"R")
                out.append(_U32.pack(index))
                return
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _pack_value(item, out, memo)
        if key is not None:
            memo[key] = len(memo)
    elif type(value) is list:
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _pack_value(item, out, memo)
    elif type(value) is dict:
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _pack_value(key, out, memo)
            _pack_value(item, out, memo)
    else:
        raise WireFormatError(
            f"value of type {type(value).__name__} is not binary-encodable"
        )


class _Reader:
    """Bounds-checked cursor over a received frame."""

    __slots__ = ("data", "offset", "end")

    def __init__(self, data: bytes, offset: int, end: int) -> None:
        self.data = data
        self.offset = offset
        self.end = end

    def take(self, count: int) -> bytes:
        if count < 0 or self.offset + count > self.end:
            raise WireFormatError(
                f"frame truncated: need {count} bytes at offset {self.offset}, "
                f"have {self.end - self.offset}"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def _unpack_value(reader: _Reader, memo: list) -> Any:
    tag = reader.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"I":
        return int.from_bytes(reader.take(reader.u32()), "little", signed=True)
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        raw = reader.take(reader.u32())
        try:
            value = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(f"corrupt utf-8 string in frame: {error}") from None
        memo.append(value)
        return value
    if tag == b"R":
        index = reader.u32()
        if index >= len(memo):
            raise WireFormatError(
                f"memo back-reference {index} exceeds memo of {len(memo)} entries"
            )
        return memo[index]
    if tag == b"y":
        return reader.take(reader.u32())
    if tag == b"t":
        value = tuple(_unpack_value(reader, memo) for _ in range(reader.u32()))
        # Mirror the encoder exactly: only memo-keyable (= hashable) tuples
        # were added, in post-order, so indices line up frame-wide.
        try:
            hash(value)
        except TypeError:
            return value
        memo.append(value)
        return value
    if tag == b"l":
        return [_unpack_value(reader, memo) for _ in range(reader.u32())]
    if tag == b"d":
        count = reader.u32()
        result = {}
        for _ in range(count):
            key = _unpack_value(reader, memo)
            result[key] = _unpack_value(reader, memo)
        return result
    raise WireFormatError(f"unknown value tag {tag!r} in frame")


# --------------------------------------------------------------------------- #
# numeric column blocks
# --------------------------------------------------------------------------- #
def _pack_column(dtype_tag: int, values: list, out: List[bytes]) -> None:
    if dtype_tag == _DTYPE_U8:
        payload = bytes(values)
    elif _np is not None:
        numpy_dtype = "<i8" if dtype_tag == _DTYPE_I64 else "<f8"
        payload = _np.asarray(values, dtype=numpy_dtype).tobytes()
    elif dtype_tag == _DTYPE_I64:
        payload = struct.pack(f"<{len(values)}q", *values)
    else:
        payload = struct.pack(f"<{len(values)}d", *values)
    out.append(_BLOCK.pack(dtype_tag, len(payload)))
    out.append(payload)


def _unpack_column(reader: _Reader, expected_tag: int, rows: int):
    """One numeric column as a sequence (numpy view when numpy is present)."""
    header = reader.take(_BLOCK.size)
    dtype_tag, nbytes = _BLOCK.unpack(header)
    if dtype_tag != expected_tag:
        raise WireFormatError(
            f"column dtype tag {dtype_tag} does not match expected {expected_tag}"
        )
    width = 1 if dtype_tag == _DTYPE_U8 else 8
    if nbytes != rows * width:
        raise WireFormatError(
            f"column of {rows} rows should be {rows * width} bytes, frame says {nbytes}"
        )
    payload = reader.take(nbytes)
    if dtype_tag == _DTYPE_U8:
        return payload
    if _np is not None:
        # Zero-copy: a read-only view straight over the received buffer.
        numpy_dtype = "<i8" if dtype_tag == _DTYPE_I64 else "<f8"
        return _np.frombuffer(payload, dtype=numpy_dtype)
    if dtype_tag == _DTYPE_I64:
        return struct.unpack(f"<{rows}q", payload)
    return struct.unpack(f"<{rows}d", payload)


# --------------------------------------------------------------------------- #
# batch frames
# --------------------------------------------------------------------------- #
def encode_batch_frame(job_key: str, entries: list) -> bytes:
    """Encode one micro-batch of element codes as a binary column frame.

    ``entries`` are ``(channel, code)`` pairs as produced by
    :class:`repro.runtime.transport.BatchingEmitter`: the channel is the
    receiver's watermark-merge id (``"src"`` or a small primitive tuple),
    the code a :mod:`repro.parallel.serialize` tuple — ``("w", side,
    value)``, ``("e", side, sequence, tuple_code, clock)`` or ``("r", side,
    kind, provisional, tuple_code, clock)``, each optionally with one
    trailing trace-context field.  Raises :class:`WireFormatError` when any
    entry falls outside the fixed layout.
    """
    rows = len(entries)
    etags: List[int] = []
    sides: List[int] = []
    kinds: List[int] = []
    flags: List[int] = []
    sequences: List[int] = []
    starts: List[int] = []
    ends: List[int] = []
    probs: List[float] = []
    clocks: List[float] = []
    dynamic: List[bytes] = []
    memo: dict = {}
    for pair in entries:
        if type(pair) is not tuple or len(pair) != 2:
            raise WireFormatError(f"batch entry {pair!r} is not a (channel, code) pair")
        channel, entry = pair
        _pack_value(channel, dynamic, memo)
        if type(entry) is not tuple or not entry:
            raise WireFormatError(f"batch entry {entry!r} is not an element code")
        tag = entry[0]
        if tag == "w":
            if len(entry) != 3:
                raise WireFormatError(f"watermark code of length {len(entry)}")
            _tag, side, value = entry
            etags.append(_ETAG_WATERMARK)
            sides.append(_checked_side(side))
            kinds.append(_NO_KIND)
            flags.append(0)
            sequences.append(0)
            starts.append(0)
            ends.append(0)
            probs.append(0.0)
            clocks.append(0.0)
            # The generic codec preserves the value's exact type: integer
            # watermarks must not come back as floats.
            _pack_value(value, dynamic, memo)
            continue
        if tag == "e":
            if len(entry) not in (5, 6):
                raise WireFormatError(f"event code of length {len(entry)}")
            _tag, side, sequence, tuple_code, clock = entry[:5]
            trace = entry[5] if len(entry) == 6 else None
            etag, kind, provisional = _ETAG_EVENT, _NO_KIND, False
        elif tag == "r":
            if len(entry) not in (6, 7):
                raise WireFormatError(f"revision code of length {len(entry)}")
            _tag, side, kind, provisional, tuple_code, clock = entry[:6]
            trace = entry[6] if len(entry) == 7 else None
            etag = _ETAG_REVISION
            if type(kind) is not int or not 0 <= kind < _NO_KIND:
                raise WireFormatError(f"revision kind code {kind!r} out of range")
            if type(provisional) is not bool:
                raise WireFormatError(f"provisional flag {provisional!r} is not a bool")
            sequence = 0
        else:
            raise WireFormatError(f"unknown element code tag {tag!r}")
        if type(tuple_code) is not tuple or len(tuple_code) != 5:
            raise WireFormatError(f"tuple code {tuple_code!r} is not a 5-tuple")
        fact, lineage, start, end, probability = tuple_code
        if type(sequence) is not int or not _I64_MIN <= sequence <= _I64_MAX:
            raise WireFormatError(f"sequence {sequence!r} does not fit an i64 column")
        if type(start) is not int or not _I64_MIN <= start <= _I64_MAX:
            raise WireFormatError(f"interval start {start!r} does not fit an i64 column")
        if type(end) is not int or not _I64_MIN <= end <= _I64_MAX:
            raise WireFormatError(f"interval end {end!r} does not fit an i64 column")
        row_flags = 0
        if probability is not None:
            if type(probability) is not float:
                raise WireFormatError(
                    f"probability {probability!r} does not fit an f64 column"
                )
            row_flags |= _FLAG_PROB
        if clock is not None:
            if type(clock) is not float:
                raise WireFormatError(f"clock {clock!r} does not fit an f64 column")
            row_flags |= _FLAG_CLOCK
        if trace is not None:
            row_flags |= _FLAG_TRACE
        if tag == "r" and provisional:
            row_flags |= _FLAG_PROVISIONAL
        etags.append(etag)
        sides.append(_checked_side(side))
        kinds.append(kind)
        flags.append(row_flags)
        sequences.append(sequence)
        starts.append(start)
        ends.append(end)
        probs.append(probability if probability is not None else 0.0)
        clocks.append(clock if clock is not None else 0.0)
        _pack_value(fact, dynamic, memo)
        _pack_value(lineage, dynamic, memo)
        if trace is not None:
            _pack_value(trace, dynamic, memo)
    key_raw = job_key.encode("utf-8")
    if len(key_raw) > 0xFFFF:
        raise WireFormatError("job key too long for a wire frame")
    parts: List[bytes] = [_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, len(key_raw), rows)]
    parts.append(key_raw)
    _pack_column(_DTYPE_U8, etags, parts)
    _pack_column(_DTYPE_U8, sides, parts)
    _pack_column(_DTYPE_U8, kinds, parts)
    _pack_column(_DTYPE_U8, flags, parts)
    _pack_column(_DTYPE_I64, sequences, parts)
    _pack_column(_DTYPE_I64, starts, parts)
    _pack_column(_DTYPE_I64, ends, parts)
    _pack_column(_DTYPE_F64, probs, parts)
    _pack_column(_DTYPE_F64, clocks, parts)
    variable = b"".join(dynamic)
    parts.append(_U32.pack(len(variable)))
    parts.append(variable)
    return b"".join(parts)


def _checked_side(side: Any) -> int:
    if side not in (0, 1):
        raise WireFormatError(f"side code {side!r} is not 0 or 1")
    return side


def decode_batch_frame(data: bytes) -> Tuple[str, list]:
    """Decode one binary column frame back into ``(job_key, entries)``.

    The returned entries are exactly the code tuples that went in —
    byte-equal round trip.  Raises :class:`WireFormatError` on truncation,
    version mismatch, or any malformed field.
    """
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"frame of {len(data)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    magic, version, key_length, rows = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:02x}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {version} does not match WIRE_VERSION {WIRE_VERSION}"
        )
    reader = _Reader(data, _HEADER.size, len(data))
    try:
        job_key = reader.take(key_length).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireFormatError(f"corrupt job key: {error}") from None
    etags = _unpack_column(reader, _DTYPE_U8, rows)
    sides = _unpack_column(reader, _DTYPE_U8, rows)
    kinds = _unpack_column(reader, _DTYPE_U8, rows)
    flags = _unpack_column(reader, _DTYPE_U8, rows)
    sequences = _unpack_column(reader, _DTYPE_I64, rows)
    starts = _unpack_column(reader, _DTYPE_I64, rows)
    ends = _unpack_column(reader, _DTYPE_I64, rows)
    probs = _unpack_column(reader, _DTYPE_F64, rows)
    clocks = _unpack_column(reader, _DTYPE_F64, rows)
    variable_length = reader.u32()
    if reader.offset + variable_length != reader.end:
        raise WireFormatError(
            f"variable section says {variable_length} bytes, "
            f"frame has {reader.end - reader.offset}"
        )
    kind_count = _revision_kind_count()
    entries: list = []
    memo: list = []
    for row in range(rows):
        channel = _unpack_value(reader, memo)
        etag = etags[row]
        side = sides[row]
        if side not in (0, 1):
            raise WireFormatError(f"row {row}: side byte {side} is not 0 or 1")
        if etag == _ETAG_WATERMARK:
            entries.append((channel, ("w", side, _unpack_value(reader, memo))))
            continue
        if etag not in (_ETAG_EVENT, _ETAG_REVISION):
            raise WireFormatError(f"row {row}: unknown element tag byte {etag}")
        row_flags = flags[row]
        fact = _unpack_value(reader, memo)
        lineage = _unpack_value(reader, memo)
        trace = _unpack_value(reader, memo) if row_flags & _FLAG_TRACE else None
        probability = float(probs[row]) if row_flags & _FLAG_PROB else None
        clock = float(clocks[row]) if row_flags & _FLAG_CLOCK else None
        tuple_code = (fact, lineage, int(starts[row]), int(ends[row]), probability)
        if etag == _ETAG_EVENT:
            code = ("e", side, int(sequences[row]), tuple_code, clock)
        else:
            kind = kinds[row]
            if kind >= kind_count:
                raise WireFormatError(
                    f"row {row}: revision kind byte {kind} out of range "
                    f"(engine has {kind_count} kinds)"
                )
            code = (
                "r",
                side,
                int(kind),
                bool(row_flags & _FLAG_PROVISIONAL),
                tuple_code,
                clock,
            )
        entries.append((channel, code if trace is None else code + (trace,)))
    if reader.offset != reader.end:
        raise WireFormatError(
            f"{reader.end - reader.offset} trailing bytes after the last row"
        )
    return job_key, entries


def _revision_kind_count() -> int:
    # Imported lazily: repro.parallel imports runtime symbols during
    # package init, so a module-level import here could cycle.
    from ..parallel.serialize import revision_kind_codes

    return revision_kind_codes()

