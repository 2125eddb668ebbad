"""Wire-codec properties: round-trip fidelity and hostile-input safety.

Two families of guarantees, mirroring the two reasons the codec exists:

* **round-trip** — every payload shape the stack actually sends (nested
  tagged tuples of primitives, the registered ``NetMessage`` class,
  numpy scalar look-alikes from the rng layer) survives
  encode → decode *identically*, types included;
* **trust boundary** — arbitrary and corrupted byte strings never raise
  anything but :class:`~repro.errors.CodecError` out of the decoder,
  and never execute anything: unknown tags, unknown wire-type names,
  truncations at every offset, bad headers, depth bombs.
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from repro.errors import CodecError
from repro.net.message import NetMessage
from repro.runtime.codec import (
    HEADER,
    MAGIC,
    MAX_DEPTH,
    WIRE_VERSION,
    decode_datagram,
    decode_value,
    encode_datagram,
    encode_value,
    register_wire_type,
    registered_wire_types,
)

# Payload shapes lifted from what the protocol modules really send:
# rp2p data/ack envelopes, FD heartbeats, rbcast frames, consensus
# estimates, replacement NIL/NEW_ABCAST frames, workload keys.
REAL_FRAMES = [
    ("rp2p.data", 7, 0, ("fd.hb", 3, 12)),
    ("rp2p.ack", 7, 0),
    ("rbc", ("ct", 1, 4, ("est", 2, ("wl", 0, 17))), 256),
    ("r.nil", 3, (0, 42), ("wl", 0, 17), 256),
    ("r.new", 1, (2, 9), "abcast-token"),
    ("gm.op", "expel", 4, 0),
]

ROUND_TRIP_VALUES = REAL_FRAMES + [
    None,
    True,
    False,
    0,
    -1,
    2**63 - 1,
    -(2**63),
    2**64,            # big-int path (> int64)
    -(2**200),
    0.0,
    -0.0,
    2.5,
    float("inf"),
    float("-inf"),
    "",
    "héllo ∞",
    b"",
    b"\x00\xff raw",
    (),
    (1, (2, (3, (4,)))),
    [],
    [1, "two", 3.0, None],
    {},
    {"k": (1, 2), 3: [True, False]},
    set(),
    {1, 2, 3},
    frozenset({("a", 1), ("b", 2)}),
    {"view": frozenset({0, 1, 2}), "ops": [("join", 2, 0)]},
]


def _value_id(value):
    """``repr``, except that a frozenset lists its members sorted: their
    order follows str hashing, which changes with ``PYTHONHASHSEED``."""
    if type(value) is frozenset:
        return f"frozenset({sorted(value)!r})"
    return repr(value)


@pytest.mark.parametrize("value", ROUND_TRIP_VALUES, ids=_value_id)
def test_value_round_trip(value):
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_nan_round_trips_as_nan():
    decoded = decode_value(encode_value(float("nan")))
    assert math.isnan(decoded)


def test_bool_identity_survives_containers():
    # True == 1 in Python; the tags must keep them distinct in context.
    decoded = decode_value(encode_value((True, 1, False, 0)))
    assert [type(x) for x in decoded] == [bool, int, bool, int]


def test_datagram_round_trip_envelope():
    for frame in REAL_FRAMES:
        src, dst, payload, size = decode_datagram(
            encode_datagram(2, 5, frame, 321)
        )
        assert (src, dst, payload, size) == (2, 5, frame, 321)


def test_netmessage_round_trips_via_registration():
    assert "net.NetMessage" in registered_wire_types()
    message = NetMessage(
        src=1, dst=2, payload={"inner": (1, frozenset({3}))}, size_bytes=64
    )
    decoded = decode_value(encode_value(message))
    assert decoded == message and type(decoded) is NetMessage


def test_numpy_scalars_encode_as_plain_numbers():
    np = pytest.importorskip("numpy")
    decoded = decode_value(encode_value((np.int64(7), np.float64(2.5))))
    assert decoded == (7, 2.5)
    assert [type(x) for x in decoded] == [int, float]


def test_unencodable_type_raises_codec_error():
    with pytest.raises(CodecError):
        encode_value(object())
    with pytest.raises(CodecError):
        encode_value(("fine", object()))


def test_register_wire_type_idempotent_and_name_clash():
    class _Probe:
        pass

    register_wire_type("test.probe", _Probe, lambda p: (), lambda f: _Probe())
    # Same name + same class: idempotent.
    register_wire_type("test.probe", _Probe, lambda p: (), lambda f: _Probe())

    class _Other:
        pass

    with pytest.raises(CodecError):
        register_wire_type("test.probe", _Other, lambda p: (), lambda f: _Other())


def test_unknown_wire_type_name_is_a_decode_error_not_a_constructor():
    # Hand-craft an `x` frame naming a type the receiver never registered.
    name = b"definitely.not.registered"
    data = b"x" + struct.pack("!I", len(name)) + name + encode_value(())
    with pytest.raises(CodecError):
        decode_value(data)


def test_depth_bomb_refused_on_both_sides():
    nested = ()
    for _ in range(MAX_DEPTH + 1):
        nested = (nested,)
    with pytest.raises(CodecError):
        encode_value(nested)
    # Decoder side: a crafted run of tuple tags nesting past the bound.
    bomb = (b"t" + struct.pack("!I", 1)) * (MAX_DEPTH + 2) + b"N"
    with pytest.raises(CodecError):
        decode_value(bomb)


# --------------------------------------------------------------------- #
# Hostile datagrams
# --------------------------------------------------------------------- #
def test_header_malformations():
    good = encode_datagram(0, 1, ("ok",), 8)
    cases = [
        b"",                                        # empty
        good[: HEADER.size - 1],                    # shorter than header
        b"XX" + good[2:],                           # bad magic
        MAGIC + bytes([WIRE_VERSION + 1]) + good[3:],  # unknown version
        good[:3] + b"\x01" + good[4:],              # non-zero flags byte
        good + b"trailing",                         # trailing garbage
        good[:-1],                                  # truncated payload
    ]
    for data in cases:
        with pytest.raises(CodecError):
            decode_datagram(data)


def test_truncation_at_every_offset():
    data = encode_datagram(1, 2, REAL_FRAMES[2], 256)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_datagram(data[:cut])


def test_fuzzed_bytes_never_raise_anything_but_codec_error():
    rng = random.Random(0)
    survived = 0
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            decode_datagram(blob)
            survived += 1
        except CodecError:
            pass
    # Random bytes essentially never form a valid datagram (magic +
    # version + exact-length payload); mostly this asserts "no other
    # exception type escaped".
    assert survived == 0


def test_bitflip_fuzz_on_valid_datagrams():
    rng = random.Random(1)
    data = encode_datagram(0, 2, REAL_FRAMES[0], 96)
    for _ in range(500):
        corrupted = bytearray(data)
        for _flip in range(rng.randrange(1, 4)):
            corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
        try:
            decode_datagram(bytes(corrupted))
        except CodecError:
            pass  # drop is the contract; any other exception fails the test


# --------------------------------------------------------------------- #
# Unhashable members: a set / frozenset / dict the decoder cannot build
# --------------------------------------------------------------------- #
def _u32(count):
    return struct.pack("!I", count)


def _frame(payload):
    return HEADER.pack(MAGIC, WIRE_VERSION, 0, 0, 1, 8) + payload


UNHASHABLE_PAYLOADS = {
    "set holding a list": b"e" + _u32(1) + encode_value([1]),
    "frozenset holding a dict": b"z" + _u32(1) + encode_value({"k": 1}),
    "dict keyed by a list": b"d" + _u32(1) + encode_value([1]) + encode_value(0),
}


@pytest.mark.parametrize("payload", UNHASHABLE_PAYLOADS.values(),
                         ids=UNHASHABLE_PAYLOADS.keys())
def test_unhashable_member_is_a_codec_error(payload):
    with pytest.raises(CodecError, match="unhashable"):
        decode_datagram(_frame(payload))


# --------------------------------------------------------------------- #
# Grammar-aware hostile fuzz: valid header, random tag streams
# --------------------------------------------------------------------- #
_VALID_TAGS = b"NTFifIsbxtlezd"
_INVALID_TAGS = bytes(b for b in range(256) if b not in _VALID_TAGS)


def _hostile_length(rng, honest):
    """Usually the honest length or count; sometimes a lie."""
    roll = rng.random()
    if roll < 0.8:
        return honest
    if roll < 0.9:
        return max(0, honest + rng.choice((-2, -1, 1, 2)))
    return rng.choice((0, 1, 255, 2**31, 2**32 - 1))


def _hostile_unhashable(rng):
    return encode_value(rng.choice((
        [1, "a"], {"k": (1,)}, {2, 3},
        NetMessage(src=0, dst=1, payload=("x",), size_bytes=8, msg_id=5),
    )))


def _hostile_leaf(rng):
    tag = rng.choice(b"NTFifsbI")
    if tag in b"NTF":
        return bytes([tag])
    if tag in b"if":
        return bytes([tag]) + rng.randbytes(8)
    raw = rng.choice((b"ok", "hé".encode(), b"\xff\xfe", rng.randbytes(3)))
    return bytes([tag]) + _u32(_hostile_length(rng, len(raw))) + raw


def _hostile_stream(rng, depth=0):
    """One value's tag stream: mostly well formed, with invalid tags,
    lying length prefixes and unhashable members of sets and dict keys."""
    roll = rng.random()
    if roll < 0.04:
        return bytes([rng.choice(_INVALID_TAGS)])
    if depth > MAX_DEPTH or roll < 0.4:
        return _hostile_leaf(rng)
    tag = rng.choice(b"tlezdx")
    if tag == b"x"[0]:
        name = rng.choice((b"net.NetMessage", b"net.NetMessage", b"not.registered"))
        fields = (b"t" + _u32(_hostile_length(rng, 5)) + encode_value(0)
                  + encode_value(1) + _hostile_stream(rng, depth + 2)
                  + encode_value(rng.choice((8, -1, "8"))) + encode_value(3))
        return b"x" + _u32(_hostile_length(rng, len(name))) + name + fields
    count = rng.randrange(4)
    items = []
    for _ in range(count * 2 if tag == b"d"[0] else count):
        hashed = tag in b"ez" or (tag == b"d"[0] and len(items) % 2 == 0)
        if hashed and rng.random() < 0.3:
            items.append(_hostile_unhashable(rng))
        else:
            items.append(_hostile_stream(rng, depth + 1))
    return bytes([tag]) + _u32(_hostile_length(rng, count)) + b"".join(items)


def test_grammar_fuzz_only_codec_error_escapes():
    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(3000):
        stream = _hostile_stream(rng)
        if rng.random() < 0.1:
            stream = stream[: rng.randrange(len(stream) + 1)]
        try:
            decode_datagram(_frame(stream))
            accepted += 1
        except CodecError:
            rejected += 1
    # Both outcomes are common, so the stream reaches past the first
    # bad byte into the container, string and wire-type paths.
    assert accepted > 300 and rejected > 300
