"""Network substrate: the simulated switched LAN and its kernel doorways.

``SimNetwork`` + ``SwitchedLan`` model the paper's 100Base-TX testbed
(per-NIC transmit serialisation, propagation jitter).  ``LinkPolicy`` is
the fault surface both backends' transports consult (loss/duplication,
partitions, per-link impairments, corruption).  ``UdpModule`` exposes the
network as the kernel service ``udp``; ``Rp2pModule`` builds reliable
FIFO point-to-point channels (service ``rp2p``) on top of it.
"""

from .links import LinkImpairment, LinkPolicy
from .message import (
    RP2P_HEADER_BYTES,
    UDP_HEADER_BYTES,
    NetMessage,
    estimate_payload_size,
)
from .network import CorruptedPayload, SimNetwork
from .rp2p import Rp2pModule
from .topology import SwitchedLan
from .udp import UdpModule

__all__ = [
    "NetMessage",
    "UDP_HEADER_BYTES",
    "RP2P_HEADER_BYTES",
    "estimate_payload_size",
    "SimNetwork",
    "LinkImpairment",
    "LinkPolicy",
    "CorruptedPayload",
    "SwitchedLan",
    "UdpModule",
    "Rp2pModule",
]
