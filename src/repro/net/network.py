"""The simulated network.

:class:`SimNetwork` connects the machines of a system through a
:class:`~repro.net.topology.SwitchedLan`:

* **transmit serialisation** — each sender NIC transmits one frame at a
  time (``size / bandwidth``), so bursts queue at the sender exactly as
  on real Ethernet; this is one of the two queueing points (with the CPU)
  that produce the latency-versus-load curves of the paper's Figure 6;
* **propagation** — a latency-model draw per datagram copy;
* **faults** — every drop / duplicate / delay / corruption decision is
  the :class:`~repro.net.links.LinkPolicy` held as :attr:`SimNetwork.links`
  (the LAN's loss and duplication rates, partitions, per-link
  impairments, latency spikes, the corruption floor).  With
  ``links.checksum`` on (the default) a corrupted frame is *detected and
  dropped* at the receiver NIC — tolerated corruption: the reliable
  layers retransmit and the ABcast properties must still hold.  With the
  checksum off the mangled frame is delivered, its payload wrapped in
  :class:`CorruptedPayload`, and counted — *flagged* corruption: the
  containment checker
  (:func:`repro.dpu.abcast_checker.check_corruption_containment`) fails
  any run in which garbage crossed into a host unprotected;
* **crash semantics** — datagrams from crashed senders are never sent;
  datagrams to crashed receivers are silently dropped (the receiver hook
  double-checks at delivery time, covering crashes that happen while the
  datagram is in flight).

The network is deliberately below the kernel: it moves payloads between
*machines*; the :class:`~repro.net.udp.UdpModule` is the kernel-facing
doorway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..errors import NetworkError, UnknownDestinationError
from ..runtime.api import Transport
from ..sim.clock import Duration, Time

if TYPE_CHECKING:  # R1 seam purity: engine types appear in annotations only —
    # SimNetwork drives the engine through the Scheduler/Transport seam objects
    # handed to it, never by importing engine internals at runtime.
    from ..sim.engine import Simulator
    from ..sim.process import Machine
from .links import LinkPolicy
from .message import NetMessage
from .topology import SwitchedLan

__all__ = ["SimNetwork", "CorruptedPayload"]


@dataclass(frozen=True)
class CorruptedPayload:
    """A payload mangled on the wire (delivered only with the checksum off).

    The simulator never serialises payloads, so "bit flips" are modelled
    structurally: the original object is wrapped, which makes the frame
    unparseable to every protocol layer above UDP.  The UDP doorway
    discards such frames defensively (garbage fails frame parsing), but
    the network's ``corrupted_delivered`` counter records that corruption
    crossed into the host — which is exactly what the containment
    checker flags.
    """

    original: object


#: Receiver hook: called as ``hook(message, arrival_time)``.
DeliveryHook = Callable[[NetMessage, Time], None]


class SimNetwork(Transport):
    """A switched LAN connecting the machines of one system.

    ``SimNetwork`` is the simulation's implementation of the
    :class:`~repro.runtime.api.Transport` contract (the runtime seam);
    :class:`~repro.runtime.realtime.RealtimeUdpTransport` is its
    real-socket twin.  It asks :attr:`links` for every datagram's
    verdict and schedules one delivery per copy the verdict lets through.
    """

    def __init__(
        self,
        sim: Simulator,
        machines: List[Machine],
        lan: Optional[SwitchedLan] = None,
    ) -> None:
        self.sim = sim
        self.lan = lan if lan is not None else SwitchedLan()
        self._nodes: Dict[int, Machine] = {m.machine_id: m for m in machines}
        self._hooks: Dict[int, DeliveryHook] = {}
        self._nic_busy_until: Dict[int, Time] = {mid: 0.0 for mid in self._nodes}
        #: The fault surface and per-datagram verdict; each copy's base
        #: delay is one propagation draw of the LAN's latency model.
        self.links = LinkPolicy(
            self._nodes,
            sim.rng.stream("net.impairments"),
            latency=self.lan.latency,
            latency_rng=sim.rng.stream("net.latency"),
            loss_rate=self.lan.loss_rate,
            duplicate_rate=self.lan.duplicate_rate,
        )
        # Per-datagram counters are plain slots-style attributes rather
        # than a Counter: one string-keyed dict update per datagram was a
        # measurable share of the send path.  stats() reassembles the
        # historical dict shape, verdict counters included.
        self._c_sent = 0
        self._c_bytes_sent = 0
        self._c_loopback = 0
        self._c_delivered = 0
        self._c_dropped_crashed_receiver = 0
        self._c_dropped_unattached = 0
        self._c_corrupted_delivered = 0

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, message: NetMessage) -> None:
        """Inject *message*; it arrives (or not) after NIC + LAN delays."""
        src, dst = message.src, message.dst
        if dst not in self._nodes:
            raise UnknownDestinationError(f"no machine with id {dst}")
        sender = self._nodes.get(src)
        if sender is None:
            raise UnknownDestinationError(f"no machine with id {src}")
        # _crashed_at, not the crashed property: the per-datagram read the
        # kernel makes too (see the co-design note in Stack.issue_call).
        if sender._crashed_at is not None:
            return  # a crashed machine sends nothing
        self._c_sent += 1
        self._c_bytes_sent += message.size_bytes

        # NIC transmit serialisation (per-sender queue).  Inlined
        # SwitchedLan.transmission_time and max(): no call per datagram.
        now = self.sim.now
        busy = self._nic_busy_until[src]
        done = (busy if busy > now else now) + (message.size_bytes * 8.0) / self.lan.bandwidth_bps
        self._nic_busy_until[src] = done

        verdict = self.links.verdict(src, dst)
        if verdict is None:
            return
        mangled, delay, duplicate_delay = verdict
        if mangled:
            # No checksum: the mangled frame travels on and is delivered.
            message = replace(message, payload=CorruptedPayload(message.payload))
        # Deliveries are never cancelled (crashed receivers are filtered
        # at delivery time); each carries its instant, the arrival time.
        self.sim.schedule_at(done + delay, self._deliver, (message, done + delay))
        if duplicate_delay is not None:
            at = done + duplicate_delay
            self.sim.schedule_at(at, self._deliver, (message, at))

    def send_local(self, message: NetMessage, loopback_delay: Duration = 0.0) -> None:
        """Self-addressed delivery (loopback): no NIC, no LAN, no loss."""
        if message.src != message.dst:
            raise NetworkError("send_local requires src == dst")
        self._c_loopback += 1
        at = self.sim.now + loopback_delay
        self.sim.schedule_at(at, self._deliver, (message, at))

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def _deliver(self, message: NetMessage, arrival: Time) -> None:
        receiver = self._nodes[message.dst]
        if receiver._crashed_at is not None:
            self._c_dropped_crashed_receiver += 1
            return
        hook = self._hooks.get(message.dst)
        if hook is None:
            self._c_dropped_unattached += 1
            return
        self._c_delivered += 1
        # The isinstance is gated on corruption having happened at all, so
        # the common corruption-free path stays branch-cheap.
        if self.links.corrupted and isinstance(message.payload, CorruptedPayload):
            self._c_corrupted_delivered += 1
        hook(message, arrival)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def nic_backlog(self, machine_id: int) -> Duration:
        """Seconds of queued transmit work at *machine_id*'s NIC."""
        return max(0.0, self._nic_busy_until[machine_id] - self.sim.now)

    def stats(self) -> Dict[str, int]:
        """Snapshot of the network counters.

        Matches the historical Counter semantics: a key is present iff
        its event ever occurred (``bytes_sent`` rides along with ``sent``),
        so reports stay byte-compatible across the fast-counter change.
        """
        links = self.links
        out: Dict[str, int] = {}
        if self._c_sent:
            out["sent"] = self._c_sent
            out["bytes_sent"] = self._c_bytes_sent
        for key, value in (
            ("dropped_partition", links.dropped_partition),
            ("dropped_loss", links.dropped_loss),
            ("duplicated", links.duplicated),
            ("reordered", links.reordered),
            ("loopback", self._c_loopback),
            ("delivered", self._c_delivered),
            ("dropped_crashed_receiver", self._c_dropped_crashed_receiver),
            ("dropped_unattached", self._c_dropped_unattached),
            ("corrupted", links.corrupted),
            ("corrupted_dropped", links.corrupted_dropped),
            ("corrupted_delivered", self._c_corrupted_delivered),
        ):
            if value:
                out[key] = value
        return out
