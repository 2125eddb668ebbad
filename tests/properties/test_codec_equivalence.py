"""Property tests: the wire codec equals the earlier list-and-join codec.

The codec in :mod:`repro.runtime.codec` writes into one ``bytearray``,
inlines str and int64 leaves inside containers and reads tags as ints.
The reference implementations below are the earlier versions, kept
verbatim: a recursive encoder that appends to a list of byte strings,
and a decoder that slices one tag byte at a time and bounds-checks
through ``_need``.  Over a strategy on the tag grammar (nesting up to
and past ``MAX_DEPTH``, big ints, NaN, bool-vs-int, nested
``NetMessage``) both must produce identical bytes, decode to equal
values of identical types, and accept or reject exactly the same
truncations and bit-flipped datagrams with the same ``CodecError``
text.  The reference leaks ``TypeError`` on an unhashable set member or
dict key; that counts as a reject, and the codec must raise
``CodecError`` there.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Dict, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.message import NetMessage
from repro.runtime.codec import (
    _WIRE_TYPE_BY_CLS,
    _WIRE_TYPES,
    HEADER,
    MAGIC,
    MAX_DEPTH,
    WIRE_VERSION,
    decode_datagram,
    decode_value,
    encode_datagram,
    encode_value,
)

# --------------------------------------------------------------------------- #
# Reference: the earlier encoder and decoder, verbatim
# --------------------------------------------------------------------------- #
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _encode_into(out: list, value: Any, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than MAX_DEPTH={MAX_DEPTH}")
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out.append(b"I")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif type(value) is float:
        out.append(b"f")
        out.append(_F64.pack(value))
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif type(value) is bytes:
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif type(value) is tuple:
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item, depth + 1)
    elif type(value) is list:
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item, depth + 1)
    elif type(value) is dict:
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for k, v in value.items():
            _encode_into(out, k, depth + 1)
            _encode_into(out, v, depth + 1)
    elif type(value) is set:
        out.append(b"e")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item, depth + 1)
    elif type(value) is frozenset:
        out.append(b"z")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item, depth + 1)
    else:
        name = _WIRE_TYPE_BY_CLS.get(type(value))
        if name is None:
            # Numeric look-alikes (int/float subclasses, numpy scalars)
            # encode as their exact plain value; everything else refuses.
            if isinstance(value, bool):
                out.append(b"T" if value else b"F")
                return
            if isinstance(value, float):
                out.append(b"f")
                out.append(_F64.pack(float(value)))
                return
            try:
                _encode_into(out, int(operator.index(value)), depth)
                return
            except TypeError:
                pass
            raise CodecError(
                f"type {type(value).__name__} is not wire-encodable; register "
                f"it with register_wire_type or restrict the payload"
            )
        _, pack, _unpack = _WIRE_TYPES[name]
        raw_name = name.encode("utf-8")
        out.append(b"x")
        out.append(_U32.pack(len(raw_name)))
        out.append(raw_name)
        fields = pack(value)
        if type(fields) is not tuple:
            raise CodecError(f"wire type {name!r}: pack() must return a tuple")
        _encode_into(out, fields, depth + 1)


def _need(data: bytes, offset: int, count: int) -> int:
    end = offset + count
    if end > len(data):
        raise CodecError(
            f"truncated datagram: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
    return end


def _decode_at(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than MAX_DEPTH={MAX_DEPTH}")
    end = _need(data, offset, 1)
    tag = data[offset:end]
    offset = end
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        end = _need(data, offset, 8)
        return _I64.unpack_from(data, offset)[0], end
    if tag == b"f":
        end = _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], end
    if tag in (b"I", b"s", b"b"):
        end = _need(data, offset, 4)
        length = _U32.unpack_from(data, offset)[0]
        offset = end
        end = _need(data, offset, length)
        raw = data[offset:end]
        if tag == b"I":
            return int.from_bytes(raw, "big", signed=True), end
        if tag == b"s":
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid utf-8 in string: {exc}") from exc
        return bytes(raw), end
    if tag in (b"t", b"l", b"e", b"z"):
        end = _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset = end
        items = []
        for _ in range(count):
            # Every item consumes >= 1 byte, so count is implicitly
            # bounded by the datagram length via the truncation check.
            item, offset = _decode_at(data, offset, depth + 1)
            items.append(item)
        if tag == b"t":
            return tuple(items), offset
        if tag == b"l":
            return items, offset
        if tag == b"e":
            return set(items), offset
        return frozenset(items), offset
    if tag == b"d":
        end = _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset = end
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset, depth + 1)
            value, offset = _decode_at(data, offset, depth + 1)
            mapping[key] = value
        return mapping, offset
    if tag == b"x":
        end = _need(data, offset, 4)
        length = _U32.unpack_from(data, offset)[0]
        offset = end
        end = _need(data, offset, length)
        try:
            name = data[offset:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in wire type name: {exc}") from exc
        offset = end
        entry = _WIRE_TYPES.get(name)
        if entry is None:
            raise CodecError(f"unknown wire type {name!r}")
        fields, offset = _decode_at(data, offset, depth + 1)
        if type(fields) is not tuple:
            raise CodecError(f"wire type {name!r}: fields must decode to a tuple")
        _cls, _pack, unpack = entry
        try:
            return unpack(fields), offset
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"wire type {name!r}: unpack failed: {exc}") from exc
    raise CodecError(f"unknown tag byte {tag!r} at offset {offset - 1}")


def ref_encode_datagram(src: int, dst: int, payload: Any, size_bytes: int) -> bytes:
    out: list = []
    _encode_into(out, payload, 0)
    return HEADER.pack(MAGIC, WIRE_VERSION, 0, src, dst, size_bytes) + b"".join(out)


def ref_decode_datagram(data: bytes) -> Tuple[int, int, Any, int]:
    if len(data) < HEADER.size:
        raise CodecError(
            f"datagram shorter than header: {len(data)} < {HEADER.size}"
        )
    magic, version, flags, src, dst, size_bytes = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    if flags != 0:
        raise CodecError(f"reserved flags byte is non-zero: {flags:#x}")
    if size_bytes < 0:
        raise CodecError(f"negative declared size {size_bytes}")
    payload, offset = _decode_at(data, HEADER.size, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after payload")
    return src, dst, payload, size_bytes


# --------------------------------------------------------------------------- #
# Strategies over the tag grammar
# --------------------------------------------------------------------------- #
INT64_EDGES = (0, 1, -1, _INT64_MAX, _INT64_MIN, _INT64_MAX + 1, _INT64_MIN - 1,
               2**64, -(2**200))
ints = st.one_of(
    st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
    st.integers(),                       # unbounded: the big-int escape
    st.sampled_from(INT64_EDGES),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.binary(max_size=12),
)
hashables = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)
values = st.recursive(
    st.one_of(leaves, hashables),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
        st.builds(NetMessage, src=st.integers(0, 7), dst=st.integers(0, 7),
                  payload=inner, size_bytes=st.integers(0, 1024), msg_id=ints),
    ),
    max_leaves=24,
)
_WRAPS = (
    lambda v: (v,),
    lambda v: [v],
    lambda v: ("tag", 7, v),
    lambda v: {"k": v},
    lambda v: NetMessage(src=0, dst=1, payload=v, size_bytes=8, msg_id=1),
)


@st.composite
def payloads(draw):
    """A value, then wrapped in containers up to and past ``MAX_DEPTH``."""
    value = draw(values)
    layers = draw(st.integers(0, MAX_DEPTH + 2))
    for _ in range(layers):
        value = draw(st.sampled_from(_WRAPS))(value)
    return value


envelopes = st.tuples(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1),
                      payloads(), st.integers(0, 2**31 - 1))


# --------------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------------- #
def _shape(value: Any) -> Any:
    """A hashable, type-exact image of *value* (floats compared bitwise,
    so NaN equals itself and -0.0 differs from 0.0)."""
    cls = type(value)
    if cls is float:
        return cls, struct.pack("!d", value)
    if cls is tuple or cls is list:
        return cls, tuple(_shape(v) for v in value)
    if cls is set or cls is frozenset:
        return cls, frozenset(_shape(v) for v in value)
    if cls is dict:
        return cls, tuple((_shape(k), _shape(v)) for k, v in value.items())
    if cls is NetMessage:
        return cls, _shape((value.src, value.dst, value.payload, value.size_bytes,
                            value.msg_id))
    return cls, value


def _ref_outcome(fn, *args):
    try:
        return "ok", _shape(fn(*args))
    except CodecError as exc:
        return "reject", str(exc)
    except TypeError:
        return "reject", None  # the reference's unhashable-member leak


def _outcome(fn, *args):
    try:
        return "ok", _shape(fn(*args))
    except CodecError as exc:
        return "reject", str(exc)


def _assert_same(ref, new) -> None:
    if ref[0] == "reject" and ref[1] is None:
        assert new[0] == "reject", new
    else:
        assert new == ref


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(envelopes)
def test_bytes_and_decoded_values_identical(envelope):
    ref = _ref_outcome(lambda: ref_encode_datagram(*envelope))
    try:
        data = encode_datagram(*envelope)
    except CodecError as exc:
        assert ref == ("reject", str(exc))
        return
    assert ref == ("ok", _shape(data))
    decoded = _outcome(decode_datagram, data)
    assert decoded == _ref_outcome(ref_decode_datagram, data)
    src, dst, payload, size = envelope
    assert decoded == ("ok", _shape((src, dst, payload, size)))


def _ref_encode_value(value: Any) -> bytes:
    out: list = []
    _encode_into(out, value, 0)
    return b"".join(out)


@settings(max_examples=150, deadline=None)
@given(payloads())
def test_encode_value_matches_reference(value):
    new = _outcome(encode_value, value)
    assert new == _ref_outcome(_ref_encode_value, value)
    if new[0] == "ok":
        assert _outcome(decode_value, encode_value(value)) == ("ok", _shape(value))


@settings(max_examples=150, deadline=None)
@given(envelopes)
def test_every_truncation_rejected_alike(envelope):
    try:
        data = encode_datagram(*envelope)
    except CodecError:
        return
    for cut in range(len(data)):
        _assert_same(_ref_outcome(ref_decode_datagram, data[:cut]),
                     _outcome(decode_datagram, data[:cut]))


@settings(max_examples=300, deadline=None)
@given(envelopes, st.data())
def test_bit_flips_accepted_and_rejected_alike(envelope, data):
    try:
        frame = bytearray(encode_datagram(*envelope))
    except CodecError:
        return
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(frame) - 1),
                                         st.integers(0, 7)), min_size=1, max_size=4))
    for index, bit in flips:
        frame[index] ^= 1 << bit
    blob = bytes(frame)
    _assert_same(_ref_outcome(ref_decode_datagram, blob), _outcome(decode_datagram, blob))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_raw_tag_streams_after_a_valid_header_alike(stream):
    blob = HEADER.pack(MAGIC, WIRE_VERSION, 0, 0, 1, 8) + stream
    _assert_same(_ref_outcome(ref_decode_datagram, blob), _outcome(decode_datagram, blob))


# --------------------------------------------------------------------------- #
# The edges: nesting right at MAX_DEPTH, crafted tag streams
# --------------------------------------------------------------------------- #
_EDGE_WRAPS = (
    lambda v: (v,),
    lambda v: [v],
    lambda v: frozenset((v,)),
    lambda v: {0: v},
)


@settings(max_examples=200, deadline=None)
@given(leaves, st.lists(st.sampled_from(_EDGE_WRAPS), min_size=MAX_DEPTH - 1,
                        max_size=MAX_DEPTH + 2))
def test_nesting_at_the_depth_bound_alike(leaf, wraps):
    value = leaf
    for wrap in wraps:
        try:
            value = wrap(value)
        except TypeError:  # an unhashable member of a frozenset
            value = (value,)
    assert _outcome(encode_value, value) == _ref_outcome(_ref_encode_value, value)


def _u32(count: int) -> bytes:
    return struct.pack("!I", max(0, count))


leaf_streams = st.one_of(
    leaves.map(encode_value),
    # A str whose bytes may not be utf-8, under a length that may lie.
    st.builds(lambda raw, lie: b"s" + _u32(len(raw) + lie) + raw,
              st.binary(max_size=6), st.sampled_from((0, 0, 0, -1, 1, 1 << 20))),
    st.binary(min_size=1, max_size=3),
)


def _container(tag: bytes, items: list, lie: int) -> bytes:
    count = len(items) // 2 if tag == b"d" else len(items)
    return tag + _u32(count + lie) + b"".join(items)


tag_streams = st.recursive(
    leaf_streams,
    lambda inner: st.builds(_container, st.sampled_from((b"t", b"l", b"e", b"z", b"d")),
                            st.lists(inner, max_size=4), st.sampled_from((0, 0, 0, -1, 1))),
    max_leaves=12,
)


@st.composite
def deep_streams(draw):
    """A leaf stream under one-item containers nested near ``MAX_DEPTH``."""
    stream = draw(leaf_streams)
    for tag in draw(st.lists(st.sampled_from(b"tlez"), min_size=MAX_DEPTH - 1,
                             max_size=MAX_DEPTH + 2)):
        stream = bytes([tag]) + _u32(1) + stream
    return stream


@settings(max_examples=400, deadline=None)
@given(st.one_of(tag_streams, deep_streams()))
def test_crafted_tag_streams_alike(stream):
    blob = HEADER.pack(MAGIC, WIRE_VERSION, 0, 0, 1, 8) + stream
    _assert_same(_ref_outcome(ref_decode_datagram, blob), _outcome(decode_datagram, blob))
