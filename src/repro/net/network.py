"""The simulated network.

:class:`SimNetwork` connects the machines of a system through a
:class:`~repro.net.topology.SwitchedLan`:

* **transmit serialisation** — each sender NIC transmits one frame at a
  time (``size / bandwidth``), so bursts queue at the sender exactly as
  on real Ethernet; this is one of the two queueing points (with the CPU)
  that produce the latency-versus-load curves of the paper's Figure 6;
* **propagation** — a latency-model draw per datagram;
* **impairments** — independent loss and duplication draws, plus explicit
  **partitions** for fault-injection tests, **per-link impairments**
  (loss/duplication/reorder bursts and added latency on selected links,
  see :class:`LinkImpairment`) and a global :attr:`SimNetwork.extra_latency`
  knob for injected latency spikes;
* **corruption** — an independent per-datagram corruption draw (the
  network-wide :attr:`SimNetwork.corrupt_rate` floor plus any per-link
  :attr:`LinkImpairment.corrupt_rate`).  With :attr:`SimNetwork.checksum`
  on (the default) a corrupted frame is *detected and dropped* at the
  receiver NIC — tolerated corruption: the reliable layers retransmit
  and the ABcast properties must still hold.  With the checksum off the
  mangled frame is delivered, its payload wrapped in
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
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import NetworkError, UnknownDestinationError
from ..runtime.api import Transport
from ..sim.clock import Duration, Time
from ..sim.random import BufferedDraws

if TYPE_CHECKING:  # R1 seam purity: engine types appear in annotations only —
    # SimNetwork drives the engine through the Scheduler/Transport seam objects
    # handed to it, never by importing engine internals at runtime.
    from ..sim.engine import Simulator
    from ..sim.process import Machine
from .message import NetMessage
from .topology import SwitchedLan

__all__ = ["SimNetwork", "LinkImpairment", "CorruptedPayload"]


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


@dataclass(frozen=True)
class LinkImpairment:
    """Extra misbehaviour on one directed link (on top of the LAN's own).

    Attributes
    ----------
    loss_rate / duplicate_rate:
        Added to the LAN-wide rates for datagrams on this link (the sum
        is clamped to 1).
    reorder_rate:
        Probability that a datagram on this link is held back by an extra
        uniform ``[0, reorder_delay)`` seconds — later traffic overtakes
        it, producing genuine reordering bursts.
    reorder_delay:
        Upper bound of the reorder hold-back, in seconds.
    extra_latency:
        Deterministic extra one-way delay on this link, in seconds
        (a per-link latency spike).
    corrupt_rate:
        Probability that a datagram on this link is corrupted in flight
        (added to the network-wide :attr:`SimNetwork.corrupt_rate` floor,
        the sum clamped to 1).  See the module docstring for the
        checksum-on (tolerated) vs checksum-off (flagged) semantics.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: Duration = 0.0
    extra_latency: Duration = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("loss_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise NetworkError(f"{attr} must be in [0, 1], got {value!r}")
        if self.reorder_delay < 0.0 or self.extra_latency < 0.0:
            raise NetworkError("reorder_delay and extra_latency must be >= 0")

#: Receiver hook: called as ``hook(message, arrival_time)``.
DeliveryHook = Callable[[NetMessage, Time], None]


class SimNetwork(Transport):
    """A switched LAN connecting the machines of one system.

    ``SimNetwork`` is the simulation's implementation of the
    :class:`~repro.runtime.api.Transport` contract (the runtime seam);
    :class:`~repro.runtime.realtime.RealtimeUdpTransport` is its
    real-socket twin.
    """

    def __init__(
        self,
        sim: Simulator,
        machines: List[Machine],
        lan: Optional[SwitchedLan] = None,
    ) -> None:
        self.sim = sim
        self.lan = lan if lan is not None else SwitchedLan()
        self._machines: Dict[int, Machine] = {m.machine_id: m for m in machines}
        self._hooks: Dict[int, DeliveryHook] = {}
        self._nic_busy_until: Dict[int, Time] = {mid: 0.0 for mid in self._machines}
        self._partitions: Set[FrozenSet[int]] = set()
        #: Directed blocked pairs (one-way/asymmetric partitions): a
        #: ``(src, dst)`` entry drops src→dst traffic while dst→src flows.
        self._oneway: Set[Tuple[int, int]] = set()
        self._links: Dict[Tuple[int, int], LinkImpairment] = {}
        #: Extra one-way delay added to every delivery (latency-spike knob;
        #: deterministic, so toggling it never perturbs the RNG streams).
        self.extra_latency: Duration = 0.0
        #: Network-wide corruption floor (per-link rates add on top).  The
        #: corruption draw happens only when the effective rate is > 0, so
        #: corruption-free runs consume exactly the historical draw
        #: sequence and stay byte-identical.
        self.corrupt_rate: float = 0.0
        #: Whether receiver NICs verify a frame checksum: corrupted frames
        #: are then *detected and dropped* (tolerated corruption — the
        #: reliable layers retransmit).  Off = mangled frames are
        #: delivered wrapped in :class:`CorruptedPayload` (flagged by the
        #: containment checker).
        self.checksum: bool = True
        # Both hot streams draw homogeneously, so the block-buffered
        # wrappers reproduce the exact scalar-draw sequences (see
        # BufferedDraws' determinism contract).
        self._latency_rng: np.random.Generator = sim.rng.stream("net.latency")
        self._impair_rng: np.random.Generator = sim.rng.stream("net.impairments")
        self._latency_draws = BufferedDraws(self._latency_rng)
        self._impair_draws = BufferedDraws(self._impair_rng)
        # Per-datagram counters are plain slots-style attributes rather
        # than a Counter: one string-keyed dict update per datagram was a
        # measurable share of the send path.  stats() reassembles the
        # historical dict shape.
        self._c_sent = 0
        self._c_bytes_sent = 0
        self._c_dropped_partition = 0
        self._c_dropped_loss = 0
        self._c_duplicated = 0
        self._c_reordered = 0
        self._c_loopback = 0
        self._c_delivered = 0
        self._c_dropped_crashed_receiver = 0
        self._c_dropped_unattached = 0
        self._c_corrupted = 0
        self._c_corrupted_dropped = 0
        self._c_corrupted_delivered = 0

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def attach(self, machine_id: int, hook: DeliveryHook) -> None:
        """Register the delivery hook for *machine_id* (one per machine)."""
        if machine_id not in self._machines:
            raise UnknownDestinationError(f"no machine with id {machine_id}")
        if machine_id in self._hooks:
            raise NetworkError(f"machine {machine_id} already attached")
        self._hooks[machine_id] = hook

    def detach(self, machine_id: int) -> None:
        """Remove the delivery hook for *machine_id*."""
        self._hooks.pop(machine_id, None)

    # ------------------------------------------------------------------ #
    # Partitions (fault injection)
    # ------------------------------------------------------------------ #
    def partition(self, group_a: Set[int], group_b: Set[int]) -> None:
        """Drop all traffic between *group_a* and *group_b* until healed."""
        for a in group_a:
            for b in group_b:
                if a != b:
                    self._partitions.add(frozenset((a, b)))

    def partition_oneway(self, src_group: Set[int], dst_group: Set[int]) -> None:
        """Drop *src_group* → *dst_group* traffic only (asymmetric split).

        The reverse direction keeps flowing: ``dst_group`` members still
        reach ``src_group``.  This is the classic half-broken switch port
        / unidirectional-link failure mode — the affected side *hears*
        the group (heartbeats, proposals) but its own frames (acks,
        votes, application sends) vanish until :meth:`heal`.
        """
        for src in src_group:
            for dst in dst_group:
                if src != dst:
                    self._oneway.add((src, dst))

    def heal(self) -> None:
        """Remove every partition (symmetric and one-way)."""
        self._partitions.clear()
        self._oneway.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        """Whether *a* → *b* traffic is currently blocked.

        Symmetric partitions block both directions; a one-way partition
        blocks exactly its recorded direction, so ``is_partitioned(a, b)``
        and ``is_partitioned(b, a)`` can disagree.
        """
        # Early-outs keep the per-datagram path allocation-free in the
        # common no-partition case.
        if self._partitions and frozenset((a, b)) in self._partitions:
            return True
        return bool(self._oneway) and (a, b) in self._oneway

    # ------------------------------------------------------------------ #
    # Per-link impairments (fault injection)
    # ------------------------------------------------------------------ #
    def impair_link(
        self,
        src: int,
        dst: int,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: Duration = 0.0,
        extra_latency: Duration = 0.0,
        corrupt_rate: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Attach a :class:`LinkImpairment` to *src→dst* (and the reverse
        direction when *symmetric*), replacing any previous one."""
        for machine_id in (src, dst):
            if machine_id not in self._machines:
                raise UnknownDestinationError(f"no machine with id {machine_id}")
        impairment = LinkImpairment(
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            reorder_rate=reorder_rate,
            reorder_delay=reorder_delay,
            extra_latency=extra_latency,
            corrupt_rate=corrupt_rate,
        )
        self._links[(src, dst)] = impairment
        if symmetric:
            self._links[(dst, src)] = impairment

    def clear_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        """Remove the impairment on *src→dst* (and reverse if *symmetric*)."""
        self._links.pop((src, dst), None)
        if symmetric:
            self._links.pop((dst, src), None)

    def clear_links(self) -> None:
        """Remove every per-link impairment."""
        self._links.clear()

    def link_impairment(self, src: int, dst: int) -> Optional[LinkImpairment]:
        """The impairment currently on *src→dst*, if any."""
        return self._links.get((src, dst))

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, message: NetMessage) -> None:
        """Inject *message*; it arrives (or not) after NIC + LAN delays."""
        src, dst = message.src, message.dst
        if dst not in self._machines:
            raise UnknownDestinationError(f"no machine with id {dst}")
        sender = self._machines.get(src)
        if sender is None:
            raise UnknownDestinationError(f"no machine with id {src}")
        # _crashed_at, not the crashed property: the per-datagram read the
        # kernel makes too (see the co-design note in Stack.issue_call).
        if sender._crashed_at is not None:
            return  # a crashed machine sends nothing
        self._c_sent += 1
        self._c_bytes_sent += message.size_bytes

        # NIC transmit serialisation (per-sender queue).
        tx = self.lan.transmission_time(message.size_bytes)
        start = max(self.sim.now, self._nic_busy_until[src])
        done = start + tx
        self._nic_busy_until[src] = done

        if (self._partitions or self._oneway) and self.is_partitioned(src, dst):
            self._c_dropped_partition += 1
            return
        link = self._links.get((src, dst)) if self._links else None
        loss = self.lan.loss_rate
        duplicate = self.lan.duplicate_rate
        if link is not None:
            loss = min(1.0, loss + link.loss_rate)
            duplicate = min(1.0, duplicate + link.duplicate_rate)
        if loss > 0.0 and self._impair_draws.random() < loss:
            self._c_dropped_loss += 1
            return
        corrupt = self.corrupt_rate
        if link is not None and link.corrupt_rate:
            corrupt = min(1.0, corrupt + link.corrupt_rate)
        if corrupt > 0.0 and self._impair_draws.random() < corrupt:
            self._c_corrupted += 1
            if self.checksum:
                # Detected at the receiver NIC: the frame vanishes like a
                # loss, but is accounted separately (tolerated corruption).
                self._c_corrupted_dropped += 1
                return
            # No checksum: the mangled frame travels on and is delivered.
            message = replace(message, payload=CorruptedPayload(message.payload))

        arrival = done + self._one_way_delay(link)
        # Deliveries are never cancelled (crashed receivers are filtered
        # at delivery time).
        self.sim.schedule_at(arrival, self._deliver, (message,))
        if duplicate > 0.0 and self._impair_draws.random() < duplicate:
            # The duplicate crosses the same impaired link, so it pays the
            # same extra latency / reorder hold as the original copy.
            dup_arrival = done + self._one_way_delay(link)
            self.sim.schedule_at(dup_arrival, self._deliver, (message,))
            self._c_duplicated += 1

    def _one_way_delay(self, link: Optional[LinkImpairment]) -> Duration:
        """One propagation delay draw, including impairments."""
        delay = self.lan.latency.sample_buffered(self._latency_draws) + self.extra_latency
        if link is not None:
            delay += link.extra_latency
            if (
                link.reorder_rate > 0.0
                and self._impair_draws.random() < link.reorder_rate
            ):
                delay += self._impair_draws.random() * link.reorder_delay
                self._c_reordered += 1
        return delay

    def send_local(self, message: NetMessage, loopback_delay: Duration = 0.0) -> None:
        """Self-addressed delivery (loopback): no NIC, no LAN, no loss."""
        if message.src != message.dst:
            raise NetworkError("send_local requires src == dst")
        self._c_loopback += 1
        sim = self.sim
        sim.schedule_at(sim.now + loopback_delay, self._deliver, (message,))

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def _deliver(self, message: NetMessage) -> None:
        receiver = self._machines[message.dst]
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
        if self._c_corrupted and isinstance(message.payload, CorruptedPayload):
            self._c_corrupted_delivered += 1
        hook(message, self.sim.now)

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
        out: Dict[str, int] = {}
        if self._c_sent:
            out["sent"] = self._c_sent
            out["bytes_sent"] = self._c_bytes_sent
        for key, value in (
            ("dropped_partition", self._c_dropped_partition),
            ("dropped_loss", self._c_dropped_loss),
            ("duplicated", self._c_duplicated),
            ("reordered", self._c_reordered),
            ("loopback", self._c_loopback),
            ("delivered", self._c_delivered),
            ("dropped_crashed_receiver", self._c_dropped_crashed_receiver),
            ("dropped_unattached", self._c_dropped_unattached),
            ("corrupted", self._c_corrupted),
            ("corrupted_dropped", self._c_corrupted_dropped),
            ("corrupted_delivered", self._c_corrupted_delivered),
        ):
            if value:
                out[key] = value
        return out
