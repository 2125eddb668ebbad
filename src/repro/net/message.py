"""Network messages and size accounting.

A :class:`NetMessage` is what travels on the simulated wire: source and
destination ranks, an opaque payload (any Python object — the simulator
never serialises it), and a **declared size in bytes** used for
transmission-time modelling.  Protocol layers add their header sizes via
the constants below, mirroring real encapsulation so that e.g. consensus
on full payloads (the paper notes their prototype runs "consensus on
messages and not on message identifiers") is visibly more expensive than
consensus on identifiers — one of our ablations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "NetMessage",
    "UDP_HEADER_BYTES",
    "RP2P_HEADER_BYTES",
    "estimate_payload_size",
]

#: IPv4 (20) + UDP (8) header bytes added to every datagram.
UDP_HEADER_BYTES = 28
#: Our reliable point-to-point layer header (seq, ack, flags, checksum).
RP2P_HEADER_BYTES = 12

_msg_counter = itertools.count(1)


@dataclass(slots=True)
class NetMessage:
    """One datagram in flight.

    Slotted, not ``frozen``: one is built per datagram, and a frozen
    dataclass's ``__init__`` stores every field through
    ``object.__setattr__`` — several times the cost of a slotted class
    built positionally.  Two consequences follow:

    * immutability is a convention — no code assigns to a message field;
      derive a changed copy with :func:`dataclasses.replace` (which keeps
      :attr:`msg_id`), as the corruption path does;
    * a message is unhashable (``eq`` without ``frozen``); nothing keys a
      set or dict by message.

    Attributes
    ----------
    src / dst:
        Machine ranks.
    payload:
        Opaque protocol data (not serialised by the simulator).
    size_bytes:
        Bytes on the wire, including all headers below this layer.
    msg_id:
        Globally unique id, for counters and debugging.
    """

    src: int
    dst: int
    payload: Any
    size_bytes: int
    msg_id: int = field(default_factory=_msg_counter.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")


# Register NetMessage with the realtime wire codec so an envelope nested
# *inside* a payload (e.g. a diagnostic frame quoting the original
# message) survives the safe codec instead of failing encode.  The wire
# envelope itself is the codec's fixed header, not this registration.
def _register_wire_type() -> None:
    from ..runtime.codec import register_wire_type

    register_wire_type(
        "net.NetMessage",
        NetMessage,
        lambda m: (m.src, m.dst, m.payload, m.size_bytes, m.msg_id),
        lambda f: NetMessage(
            src=f[0], dst=f[1], payload=f[2], size_bytes=f[3], msg_id=f[4]
        ),
    )


_register_wire_type()


def estimate_payload_size(obj: Any, default: int = 64) -> int:
    """A rough, deterministic wire-size estimate for a Python payload.

    Protocols *should* declare sizes explicitly; this helper exists for
    examples and tests.  The estimate follows typical compact binary
    encodings (varint-free, length-prefixed):

    * ``None``: 1 byte, ``bool``: 1, ``int``/``float``: 8
    * ``str``/``bytes``: length + 4
    * sequences / sets: 4 + sum of elements
    * mappings: 4 + sum of keys and values
    * dataclass-like objects with ``__dict__``: treated as a mapping
    * anything else: *default* bytes.
    """
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj) + 4
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 4 + sum(estimate_payload_size(x, default) for x in obj)
    if isinstance(obj, dict):
        return 4 + sum(
            estimate_payload_size(k, default) + estimate_payload_size(v, default)
            for k, v in obj.items()
        )
    inner = getattr(obj, "__dict__", None)
    if inner:
        return estimate_payload_size(inner, default)
    return default
