"""Fixed-sequencer atomic broadcast.

The simplest member of the fixed-sequencer family (cf. Défago, Schiper &
Urbán's survey): one distinguished process — by default the lowest rank
of the group — assigns a global sequence number to every message and
R-broadcasts the order; everyone delivers in contiguous sequence-number
order.

* latency: one RP2P hop to the sequencer + one R-broadcast — *shorter*
  than the consensus path at low load;
* the sequencer is a throughput hot-spot — *worse* than consensus-based
  batching near saturation (visible in the protocol-comparison bench);
* **fault tolerance: none.**  If the sequencer crashes the protocol
  stalls: safety is preserved (nothing undelivered gets ordered), but
  liveness is lost.  Fail-over would require view synchrony — exactly
  the dependency the paper's stack avoids — so it is intentionally out
  of scope; ``tests/integration/test_limitations.py`` uses the stall to
  demonstrate that Algorithm 1 cannot replace a *dead* protocol (the
  change request travels through the old protocol itself).

Satisfies the full Section 5.1 specification in runs where the sequencer
does not crash.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..kernel.module import NOT_MINE
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..rbcast.reliable import RBCAST_SERVICE
from .base import AbcastModuleBase, AbcastRecord, SnDeliveryBuffer

__all__ = ["SequencerAbcastModule"]

_REQ = "sq.req"
_ORD = "sq.ord"
#: Frame overhead beyond the payload (uid, sn, tags).
_SQ_HEADER = 20


class SequencerAbcastModule(AbcastModuleBase):
    """Atomic broadcast ordered by a fixed sequencer."""

    REQUIRES = (WellKnown.RP2P, RBCAST_SERVICE)
    PROTOCOL = "abcast-seq"

    def __init__(
        self,
        stack: Stack,
        group: Sequence[int],
        sequencer: Optional[int] = None,
        instance_tag: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, group, instance_tag=instance_tag, name=name)
        self.sequencer = sequencer if sequencer is not None else self.group[0]
        if self.sequencer not in self.group:
            raise ValueError(
                f"sequencer {self.sequencer} is not in the group {self.group!r}"
            )
        self._next_sn = 0  # used only by the sequencer itself
        self._buffer = SnDeliveryBuffer()
        self.subscribe(WellKnown.RP2P, "deliver", self._on_rp2p)
        self.subscribe(RBCAST_SERVICE, "deliver", self._on_rbcast)

    @property
    def is_sequencer(self) -> bool:
        """Whether this stack hosts the ordering role."""
        return self.stack_id == self.sequencer

    # ------------------------------------------------------------------ #
    # ABcast: route to the sequencer
    # ------------------------------------------------------------------ #
    def _abcast(self, payload: Any, size_bytes: int) -> None:
        uid = self._fresh_uid()
        self.counters.incr("abcasts")
        if self.is_sequencer:
            self._assign_order(AbcastRecord(uid, payload, size_bytes))
        else:
            self.call(
                WellKnown.RP2P,
                "send",
                self.sequencer,
                (_REQ, self.instance_tag, uid, payload, size_bytes),
                size_bytes + _SQ_HEADER,
            )

    def _on_rp2p(self, src: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _REQ):
            return NOT_MINE
        _, tag, uid, inner, inner_size = payload
        if tag != self.instance_tag:
            return NOT_MINE  # another incarnation's traffic
        if not self.is_sequencer:
            return None  # misrouted request: claimed but ignored
        self._assign_order(AbcastRecord(uid, inner, inner_size))
        return None

    # ------------------------------------------------------------------ #
    # Ordering (sequencer only)
    # ------------------------------------------------------------------ #
    def _assign_order(self, record: AbcastRecord) -> None:
        sn = self._next_sn
        self._next_sn += 1
        self.counters.incr("orders_assigned")
        self.call(
            RBCAST_SERVICE,
            "broadcast",
            (_ORD, self.instance_tag, sn, record.uid, record.payload, record.size_bytes),
            record.size_bytes + _SQ_HEADER,
        )

    # ------------------------------------------------------------------ #
    # Delivery (everyone, in contiguous sn order)
    # ------------------------------------------------------------------ #
    def _on_rbcast(self, origin: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _ORD):
            return NOT_MINE
        _, tag, sn, uid, inner, inner_size = payload
        if tag != self.instance_tag:
            return NOT_MINE
        for record in self._buffer.offer(sn, AbcastRecord(uid, inner, inner_size)):
            self._adeliver_record(record)
        return None
