"""Safe, versioned wire codec for the realtime datagram path.

The realtime transport used to pickle ``(src, dst, payload, size_bytes)``
onto the wire, which has two failure modes the chaos layer cares about:

* **trust** — ``pickle.loads`` on bytes from a UDP socket executes
  arbitrary constructors; one hostile datagram owns the process.  A
  loopback lab can shrug at that; anything beyond localhost cannot.
* **robustness** — a truncated or corrupted datagram raises out of the
  decode into the asyncio loop.  A soak that must "run non-stop" cannot
  afford an unhandled exception per garbage frame.

This module replaces pickle with a small explicit codec:

* a fixed :data:`HEADER` — magic (``RW``), a **version byte**
  (:data:`WIRE_VERSION`), a flags byte (reserved, must be zero), the
  envelope ints ``src`` / ``dst`` / ``size_bytes`` — followed by
* a **restricted-tag, length-prefixed value encoding** of the payload.
  Exactly the shapes the protocol modules actually put on the wire are
  representable: ``None``, ``bool``, ``int``, ``float``, ``str``,
  ``bytes``, ``tuple``, ``list``, ``dict``, ``set``, ``frozenset`` —
  plus explicitly *registered* message classes (see
  :func:`register_wire_type`; :class:`~repro.net.message.NetMessage`
  registers itself).  Nothing else encodes, and — the point — nothing
  else **decodes**: there is no tag whose decoding calls a constructor
  the receiver did not register first.

Every malformation — bad magic, unknown version, non-zero flags,
unknown tag, length prefix past the end of the datagram, trailing
garbage, containers nested past :data:`MAX_DEPTH`, a set member or dict
key that is unhashable (a list, say) — raises
:class:`~repro.errors.CodecError` from :func:`decode_datagram`.  The
transport catches exactly that (plus nothing else), counts the drop,
and moves on; it drops and counts a well-formed datagram whose header
``dst`` is not the receiving rank the same way.  See
``RealtimeUdpTransport._on_datagram``.

Both directions run once per datagram, so the hot path is flat: one
``bytearray`` per datagram, one struct call per tag and its length or
value, tags read as ints, bounds checked inline, and the str and int64
items of a container written and read inline.  Any edge (a bound, bad
utf-8, the depth limit) takes the recursive path or raises its error.

The codec is deliberately *not* self-describing beyond its tags: it is
a wire format for this stack's frames, not a general serialisation
library.  Determinism: encoding is a pure function of the value (dict
and set iteration order is preserved as given), so equal frames encode
to equal bytes within one process.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Callable, Dict, Tuple

from ..errors import CodecError

__all__ = [
    "WIRE_VERSION",
    "MAX_DEPTH",
    "encode_value",
    "decode_value",
    "encode_datagram",
    "decode_datagram",
    "register_wire_type",
    "registered_wire_types",
]

#: Version byte stamped into every datagram header.  Receivers drop
#: datagrams from other versions (counted, never raised) so rolling a
#: codec change through a live cluster degrades to partition, not crash.
WIRE_VERSION = 1

#: Two magic bytes: "repro wire".  Catches cross-talk from unrelated
#: processes that happen to hit our port.
MAGIC = b"RW"

#: Maximum container nesting the decoder will follow.  The stack's real
#: frames nest ~6 deep; 32 leaves headroom while bounding the recursion
#: a hostile datagram can force.
MAX_DEPTH = 32

#: Header: magic(2s) version(B) flags(B) src(i) dst(i) size_bytes(i).
HEADER = struct.Struct("!2sBBiii")

# A tag byte and the length or value after it, packed in one call.
_pack_tag_len = struct.Struct("!cI").pack
_pack_tag_i64 = struct.Struct("!cq").pack
_pack_tag_f64 = struct.Struct("!cd").pack
_unpack_u32 = struct.Struct("!I").unpack_from
_unpack_i64 = struct.Struct("!q").unpack_from
_unpack_f64 = struct.Struct("!d").unpack_from

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# The item containers: tag, u32 count, then the items in order.  The
# decoder keys its table by the tag's int value, as ``data[offset]``
# reads it (``b"t"[0]`` folds to a constant at compile time).
_SEQUENCE_TAGS: Dict[type, bytes] = {tuple: b"t", list: b"l", set: b"e", frozenset: b"z"}
_SEQUENCE_BUILDERS: Dict[int, Callable[[list], Any]] = {
    b"t"[0]: tuple, b"l"[0]: list, b"e"[0]: set, b"z"[0]: frozenset,
}

# Registered message classes: name -> (cls, pack, unpack); cls -> name.
_WIRE_TYPES: Dict[str, Tuple[type, Callable[[Any], tuple], Callable[[tuple], Any]]] = {}
_WIRE_TYPE_BY_CLS: Dict[type, str] = {}


def register_wire_type(
    name: str,
    cls: type,
    pack: Callable[[Any], tuple],
    unpack: Callable[[tuple], Any],
) -> None:
    """Register message class *cls* under wire tag *name*.

    ``pack(obj)`` must return a tuple of codec-encodable fields;
    ``unpack(fields)`` rebuilds the instance.  Registration is what
    makes a class decodable — an unregistered name in an incoming
    datagram is a :class:`~repro.errors.CodecError`, not an import or a
    constructor call.  Re-registering the same name for the same class
    is idempotent; re-using a name for a different class is an error
    (two modules fighting over a tag is a deployment bug).
    """
    existing = _WIRE_TYPES.get(name)
    if existing is not None and existing[0] is not cls:
        raise CodecError(
            f"wire type name {name!r} already registered for {existing[0].__name__}"
        )
    _WIRE_TYPES[name] = (cls, pack, unpack)
    _WIRE_TYPE_BY_CLS[cls] = name


def registered_wire_types() -> Tuple[str, ...]:
    """The currently registered wire-type names (sorted)."""
    return tuple(sorted(_WIRE_TYPES))


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def _too_deep() -> CodecError:
    return CodecError(f"value nests deeper than MAX_DEPTH={MAX_DEPTH}")


def _encode_into(out: bytearray, value: Any, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise _too_deep()
    cls = type(value)
    tag = _SEQUENCE_TAGS.get(cls)
    if tag is not None:
        out += _pack_tag_len(tag, len(value))
        if value and depth >= MAX_DEPTH:
            raise _too_deep()  # where the first item's recursion would raise
        depth += 1
        for item in value:
            # str and int64 leaves inline; everything else recurses.
            item_cls = type(item)
            if item_cls is str:
                raw = item.encode("utf-8")
                out += _pack_tag_len(b"s", len(raw))
                out += raw
            elif item_cls is int and _INT64_MIN <= item <= _INT64_MAX:
                out += _pack_tag_i64(b"i", item)
            else:
                _encode_into(out, item, depth)
    elif cls is str:
        raw = value.encode("utf-8")
        out += _pack_tag_len(b"s", len(raw))
        out += raw
    elif cls is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out += _pack_tag_i64(b"i", value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _pack_tag_len(b"I", len(raw))
            out += raw
    elif value is None:
        out += b"N"
    elif cls is bool:
        out += b"T" if value else b"F"
    elif cls is float:
        out += _pack_tag_f64(b"f", value)
    elif cls is bytes:
        out += _pack_tag_len(b"b", len(value))
        out += value
    elif cls is dict:
        out += _pack_tag_len(b"d", len(value))
        for k, v in value.items():
            _encode_into(out, k, depth + 1)
            _encode_into(out, v, depth + 1)
    else:
        name = _WIRE_TYPE_BY_CLS.get(cls)
        if name is None:
            # Numeric look-alikes (int/float subclasses, numpy scalars)
            # encode as their exact plain value; everything else refuses.
            if isinstance(value, bool):
                out += b"T" if value else b"F"
                return
            if isinstance(value, float):
                out += _pack_tag_f64(b"f", float(value))
                return
            try:
                _encode_into(out, int(operator.index(value)), depth)
                return
            except TypeError:
                pass
            raise CodecError(
                f"type {cls.__name__} is not wire-encodable; register "
                f"it with register_wire_type or restrict the payload"
            )
        _, pack, _unpack = _WIRE_TYPES[name]
        raw_name = name.encode("utf-8")
        out += _pack_tag_len(b"x", len(raw_name))
        out += raw_name
        fields = pack(value)
        if type(fields) is not tuple:
            raise CodecError(f"wire type {name!r}: pack() must return a tuple")
        _encode_into(out, fields, depth + 1)


def encode_value(value: Any) -> bytes:
    """Encode one payload value (raises :class:`CodecError` on
    unencodable types or excessive nesting)."""
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


def encode_datagram(src: int, dst: int, payload: Any, size_bytes: int) -> bytes:
    """Encode one wire datagram: header + payload value."""
    out = bytearray(HEADER.pack(MAGIC, WIRE_VERSION, 0, src, dst, size_bytes))
    _encode_into(out, payload, 0)
    return bytes(out)


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #
def _truncated(offset: int, count: int, n: int) -> CodecError:
    return CodecError(
        f"truncated datagram: need {count} bytes at offset {offset}, "
        f"have {n - offset}"
    )


def _unhashable(exc: TypeError) -> CodecError:
    return CodecError(f"unhashable set member or dict key: {exc}")


def _decode_at(data: bytes, offset: int, depth: int, n: int) -> Tuple[Any, int]:
    # n is len(data), computed once per datagram.
    if depth > MAX_DEPTH:
        raise _too_deep()
    if offset >= n:
        raise _truncated(offset, 1, n)
    tag = data[offset]
    offset += 1
    build = _SEQUENCE_BUILDERS.get(tag)
    if build is not None:
        if offset + 4 > n:
            raise _truncated(offset, 4, n)
        count = _unpack_u32(data, offset)[0]
        offset += 4
        if count and depth >= MAX_DEPTH:
            raise _too_deep()  # where the first item's recursion would raise
        depth += 1
        items = []
        for _ in range(count):
            # Every item consumes >= 1 byte, so count is implicitly
            # bounded by the datagram length via the truncation check.
            # int64 and str leaves decode inline; any other tag, bound or
            # utf-8 edge goes through the recursion, which raises.
            if offset < n:
                leaf = data[offset]
                if leaf == b"i"[0] and offset + 9 <= n:
                    items.append(_unpack_i64(data, offset + 1)[0])
                    offset += 9
                    continue
                if leaf == b"s"[0] and offset + 5 <= n:
                    end = offset + 5 + _unpack_u32(data, offset + 1)[0]
                    if end <= n:
                        try:
                            items.append(data[offset + 5:end].decode("utf-8"))
                            offset = end
                            continue
                        except UnicodeDecodeError:
                            pass
            item, offset = _decode_at(data, offset, depth, n)
            items.append(item)
        try:
            return build(items), offset
        except TypeError as exc:
            raise _unhashable(exc) from exc
    if tag == b"i"[0]:
        if offset + 8 > n:
            raise _truncated(offset, 8, n)
        return _unpack_i64(data, offset)[0], offset + 8
    if tag in b"sIbx":
        if offset + 4 > n:
            raise _truncated(offset, 4, n)
        end = offset + 4 + _unpack_u32(data, offset)[0]
        offset += 4
        if end > n:
            raise _truncated(offset, end - offset, n)
        raw = data[offset:end]
        if tag == b"s"[0]:
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid utf-8 in string: {exc}") from exc
        if tag == b"I"[0]:
            return int.from_bytes(raw, "big", signed=True), end
        if tag == b"b"[0]:
            return bytes(raw), end
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in wire type name: {exc}") from exc
        entry = _WIRE_TYPES.get(name)
        if entry is None:
            raise CodecError(f"unknown wire type {name!r}")
        fields, offset = _decode_at(data, end, depth + 1, n)
        if type(fields) is not tuple:
            raise CodecError(f"wire type {name!r}: fields must decode to a tuple")
        _cls, _pack, unpack = entry
        try:
            return unpack(fields), offset
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"wire type {name!r}: unpack failed: {exc}") from exc
    if tag == b"N"[0]:
        return None, offset
    if tag == b"T"[0]:
        return True, offset
    if tag == b"F"[0]:
        return False, offset
    if tag == b"f"[0]:
        if offset + 8 > n:
            raise _truncated(offset, 8, n)
        return _unpack_f64(data, offset)[0], offset + 8
    if tag == b"d"[0]:
        if offset + 4 > n:
            raise _truncated(offset, 4, n)
        count = _unpack_u32(data, offset)[0]
        offset += 4
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset, depth + 1, n)
            value, offset = _decode_at(data, offset, depth + 1, n)
            try:
                mapping[key] = value
            except TypeError as exc:
                raise _unhashable(exc) from exc
        return mapping, offset
    raise CodecError(f"unknown tag byte {bytes([tag])!r} at offset {offset - 1}")


def decode_value(data: bytes) -> Any:
    """Decode one payload value; the whole buffer must be consumed."""
    n = len(data)
    value, offset = _decode_at(data, 0, 0, n)
    if offset != n:
        raise CodecError(f"{n - offset} trailing bytes after value")
    return value


def decode_datagram(data: bytes) -> Tuple[int, int, Any, int]:
    """Decode one wire datagram into ``(src, dst, payload, size_bytes)``.

    Raises :class:`~repro.errors.CodecError` — and only that — on any
    malformation, so callers have exactly one thing to catch.
    """
    n = len(data)
    if n < HEADER.size:
        raise CodecError(f"datagram shorter than header: {n} < {HEADER.size}")
    magic, version, flags, src, dst, size_bytes = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    if flags != 0:
        raise CodecError(f"reserved flags byte is non-zero: {flags:#x}")
    if size_bytes < 0:
        raise CodecError(f"negative declared size {size_bytes}")
    payload, offset = _decode_at(data, HEADER.size, 0, n)
    if offset != n:
        raise CodecError(f"{n - offset} trailing bytes after payload")
    return src, dst, payload, size_bytes
