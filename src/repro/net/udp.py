"""The UDP module: kernel-facing doorway to the simulated network.

Provides the ``udp`` service (paper, Figure 4: "an interface to the UDP
(unreliable) protocol"):

* call ``send(dst, payload, size_bytes)`` — datagram out (unreliable,
  unordered, possibly duplicated: whatever the LAN does);
* response ``deliver(src, payload, size_bytes)`` — datagram in.

Receive processing charges the host CPU (`recv_cost`) before the response
is emitted, so floods of datagrams contend with protocol work exactly as
interrupts + kernel processing do on a real host.
"""

from __future__ import annotations

from typing import Any, Optional

from ..kernel.module import Module
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..runtime.api import Transport
from ..sim.clock import Duration, Time, us
from .message import UDP_HEADER_BYTES, NetMessage
from .network import CorruptedPayload

__all__ = ["UdpModule"]

#: Default CPU cost to hand one received datagram to the stack.
DEFAULT_RECV_COST: Duration = us(15.0)
#: Default CPU cost to push one datagram out.
DEFAULT_SEND_COST: Duration = us(10.0)


class UdpModule(Module):
    """Kernel module providing the ``udp`` service over any
    :class:`~repro.runtime.api.Transport` (the simulated LAN or the
    realtime UDP-socket transport — same module, same semantics)."""

    PROVIDES = (WellKnown.UDP,)
    REQUIRES = ()
    PROTOCOL = "udp"

    def __init__(
        self,
        stack: Stack,
        network: Transport,
        recv_cost: Duration = DEFAULT_RECV_COST,
        send_cost: Duration = DEFAULT_SEND_COST,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, name=name)
        self.network = network
        self.recv_cost = recv_cost
        self.send_cost = send_cost
        #: Frames that arrived mangled (checksum off upstream) and were
        #: discarded here because they fail protocol-level parsing.
        self.garbage_dropped = 0
        self.export_call(WellKnown.UDP, "send", self._send)
        network.attach(stack.stack_id, self._on_datagram)

    def on_stop(self) -> None:
        self.network.detach(self.stack_id)

    # ------------------------------------------------------------------ #
    # Outbound
    # ------------------------------------------------------------------ #
    def _send(self, dst: int, payload: Any, size_bytes: int) -> None:
        src = self.stack_id
        # Positional: one construction per datagram (the kwargs form is
        # measurably slower on this path).
        message = NetMessage(src, dst, payload, size_bytes + UDP_HEADER_BYTES)
        if dst == src:
            # Loopback: skip NIC and LAN, but still cost a receive.
            self.network.send_local(message)
            return
        # The send-side CPU cost was already charged by the kernel call
        # dispatch; the explicit extra below models the syscall + copy.
        self.stack.backend.execute(self.send_cost, self.network.send, (message,))

    # ------------------------------------------------------------------ #
    # Inbound
    # ------------------------------------------------------------------ #
    def _on_datagram(self, message: NetMessage, arrival: Time) -> None:
        if isinstance(message.payload, CorruptedPayload):
            # A mangled frame reached the host (no checksum below us): it
            # fails frame parsing at this doorway and is discarded — but
            # the network already counted the breach, so the corruption
            # containment checker still flags the run.
            self.garbage_dropped += 1
            return
        # Charge receive processing on this host's CPU, then hand the
        # payload to whoever requires the udp service (no Module.respond frame).
        self.stack.issue_response(
            self,
            WellKnown.UDP,
            "deliver",
            (message.src, message.payload, message.size_bytes - UDP_HEADER_BYTES),
            self.recv_cost,
        )
