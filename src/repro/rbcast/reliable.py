"""Uniform reliable broadcast (eager, relay-on-first-delivery).

Chandra–Toueg consensus R-broadcasts its *decide* messages, and the
consensus-based atomic broadcast R-broadcasts the application payloads it
later orders; this module provides that primitive as the kernel service
``rbcast``:

* call ``broadcast(payload, size_bytes)``;
* response ``deliver(origin, payload, size_bytes)``.

Algorithm (crash-stop, reliable FIFO channels underneath): the origin
sends ``(origin, seq, payload)`` to every process including itself; on
*first* receipt of a given ``(origin, seq)`` a process relays the message
to every other process and then delivers it.  The relay gives the
all-or-nothing guarantee: if any correct process delivers, its relays —
on reliable channels — reach every correct process.

Properties (with crash-stop processes and a majority... no majority is
needed here — any number of crashes):

* validity: a correct origin delivers its own message;
* agreement: if a correct process delivers m, every correct process does;
* integrity: no duplication (``seen`` set), no creation.

Cost: O(n²) datagrams per broadcast — the textbook eager algorithm.  The
paper calls its own prototype "non-optimized"; this matches that spirit
and the measured shapes (and is an explicit knob: ``relay=False`` turns
the module into best-effort broadcast for ablations).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..kernel.module import Module, NOT_MINE
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..sim.monitors import Counter

__all__ = ["RbcastModule", "RBCAST_SERVICE"]

#: Kernel service name (not in :class:`WellKnown`: the paper's Figure 4
#: does not draw it — it is the R-broadcast primitive *inside* CT).
RBCAST_SERVICE = "rbcast"

_TAG = "rbc"
#: Header bytes of one rbcast frame (origin, seq).
_RBC_HEADER = 10


class RbcastModule(Module):
    """Uniform reliable broadcast over RP2P channels."""

    PROVIDES = (RBCAST_SERVICE,)
    REQUIRES = (WellKnown.RP2P,)
    PROTOCOL = "rbcast"

    def __init__(
        self,
        stack: Stack,
        group: Sequence[int],
        relay: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, name=name)
        if stack.stack_id not in group:
            raise ValueError(
                f"stack {stack.stack_id} must be a member of its own rbcast group {group!r}"
            )
        self.group: Tuple[int, ...] = tuple(sorted(set(group)))
        self.relay = relay
        # Bumped in place per frame (no Counter.incr call); see counters.
        self._counts: Dict[str, int] = dict.fromkeys(
            ("broadcasts", "duplicates_suppressed", "relays", "delivered"), 0
        )
        self._next_seq = 0
        self._seen: Set[Tuple[int, int]] = set()
        self.export_call(RBCAST_SERVICE, "broadcast", self._broadcast)
        self.subscribe(WellKnown.RP2P, "deliver", self._on_rp2p)

    @property
    def counters(self) -> Counter:
        """Snapshot of the statistics (a key is present iff its event occurred)."""
        counters = Counter()
        for key in filter(self._counts.get, self._counts):
            counters.incr(key, self._counts[key])
        return counters

    # ------------------------------------------------------------------ #
    # Broadcasting
    # ------------------------------------------------------------------ #
    def _broadcast(self, payload: Any, size_bytes: int) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._counts["broadcasts"] += 1
        frame = (_TAG, self.stack_id, seq, payload, size_bytes)
        # Straight to the stack: Module.call would add a frame per send.
        issue_call = self.stack.issue_call
        for dst in self.group:
            issue_call(self, WellKnown.RP2P, "send", (dst, frame, size_bytes + _RBC_HEADER))

    # ------------------------------------------------------------------ #
    # Receiving / relaying
    # ------------------------------------------------------------------ #
    def _on_rp2p(self, src: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _TAG):
            return NOT_MINE
        _, origin, seq, inner, inner_size = payload
        key = (origin, seq)
        if key in self._seen:
            self._counts["duplicates_suppressed"] += 1
            return
        self._seen.add(key)
        if self.relay:
            frame = (_TAG, origin, seq, inner, inner_size)
            for dst in self.group:
                if dst != self.stack_id and dst != origin and dst != src:
                    self._counts["relays"] += 1
                    self.stack.issue_call(
                        self, WellKnown.RP2P, "send", (dst, frame, inner_size + _RBC_HEADER)
                    )
        self._counts["delivered"] += 1
        self.stack.issue_response(self, RBCAST_SERVICE, "deliver", (origin, inner, inner_size))
