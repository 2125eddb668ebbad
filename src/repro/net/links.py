"""The link policy: every per-datagram fault decision, for both backends.

:class:`LinkPolicy` is the network's misbehaviour as one value that
every transport consults and every fault injector mutates: the
symmetric and one-way partition tables, the per-link
:class:`LinkImpairment`\\ s, the network-wide ``extra_latency`` and
corruption floor, and the seeded per-datagram :meth:`LinkPolicy.verdict`
(dropped — by a partition, a loss draw or a checksummed corruption —
or delivered, mangled or not, once or twice, each copy after its own
delay).

:class:`~repro.net.network.SimNetwork` and
:class:`~repro.runtime.realtime.RealtimeUdpTransport` each hold one as
``.links`` and differ only in how they carry a verdict out: the sim
schedules a delivery per copy, the realtime transport calls ``sendto``
per copy (now or after the delay) and mangles a corrupted frame so the
receiver's codec drops it.  :class:`~repro.sim.faults.FaultInjector`
schedules and records changes to the policy.

Determinism: every draw comes from the policy's own stream, and a draw
happens only when its rate is > 0, so a fault-free run consumes nothing
from it and toggling the deterministic knobs (partitions, latency)
never perturbs any stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, Optional, Set, Tuple

import numpy as np

from ..errors import NetworkError, UnknownDestinationError
from ..sim.latency import ConstantLatency, LatencyModel
from ..sim.random import BufferedDraws

__all__ = ["LinkImpairment", "LinkPolicy", "Verdict"]

#: A datagram that travels: ``(mangled, delay, duplicate_delay)`` —
#: whether it was corrupted in flight with no checksum to catch it, the
#: one-way delay of the copy, and the delay of the duplicate copy
#: (``None`` when not duplicated).
Verdict = Tuple[bool, float, Optional[float]]


@dataclass(frozen=True)
class LinkImpairment:
    """Extra misbehaviour on one directed link (on top of the network's own).

    Attributes
    ----------
    loss_rate / duplicate_rate:
        Added to the network-wide rates for datagrams on this link (the
        sum is clamped to 1).
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
        (added to the network-wide :attr:`LinkPolicy.corrupt_rate` floor,
        the sum clamped to 1).
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: float = 0.0
    extra_latency: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("loss_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise NetworkError(f"{attr} must be in [0, 1], got {value!r}")
        if self.reorder_delay < 0.0 or self.extra_latency < 0.0:
            raise NetworkError("reorder_delay and extra_latency must be >= 0")


class LinkPolicy:
    """Partitions, link impairments and the seeded per-datagram verdict.

    Parameters
    ----------
    nodes:
        The node ids a link may name (:meth:`impair_link` rejects others).
    rng:
        The impairment stream every loss / corruption / reorder /
        duplication draw comes from.
    latency / latency_rng:
        The propagation model drawn once per copy that travels, as its
        base one-way delay, and the stream it draws from (the sim's
        LAN; by default no base delay, for a wire that pays its own).
    loss_rate / duplicate_rate:
        Network-wide rates every link's own rates add to.

    Attributes
    ----------
    extra_latency:
        Extra one-way delay on every copy (the latency-spike knob).
    corrupt_rate:
        Network-wide corruption floor; per-link rates add on top.
    checksum:
        Whether receivers verify a frame checksum: a corrupted frame is
        then dropped here (tolerated corruption, counted in
        ``corrupted_dropped``); off = the verdict says *mangled* and the
        transport delivers the damage.
    dropped_partition / dropped_loss / duplicated / reordered / corrupted / corrupted_dropped:
        What the verdicts decided so far.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        rng: np.random.Generator,
        latency: LatencyModel = ConstantLatency(0.0),
        latency_rng: Optional[np.random.Generator] = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ) -> None:
        self._nodes: FrozenSet[int] = frozenset(nodes)
        # Each stream draws one kind of value only, so the block buffers
        # reproduce the exact scalar-draw sequences (see BufferedDraws).
        self._draws = BufferedDraws(rng)
        self._latency = latency
        # A constant model never draws, so it needs no stream of its own.
        self._latency_draws = BufferedDraws(latency_rng if latency_rng is not None else rng)
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self._partitions: Set[FrozenSet[int]] = set()
        #: Directed blocked pairs (one-way partitions): a ``(src, dst)``
        #: entry drops src→dst traffic while dst→src flows.
        self._oneway: Set[Tuple[int, int]] = set()
        self._links: Dict[Tuple[int, int], LinkImpairment] = {}
        self.extra_latency = 0.0
        self.corrupt_rate = 0.0
        self.checksum = True
        self.dropped_partition = 0
        self.dropped_loss = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0
        self.corrupted_dropped = 0

    # ------------------------------------------------------------------ #
    # Partitions
    # ------------------------------------------------------------------ #
    def partition(self, group_a: Collection[int], group_b: Collection[int]) -> None:
        """Drop all traffic between *group_a* and *group_b* until healed."""
        for a in group_a:
            for b in group_b:
                if a != b:
                    self._partitions.add(frozenset((a, b)))

    def partition_oneway(self, src_group: Collection[int], dst_group: Collection[int]) -> None:
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
        # Early-outs keep the check allocation-free with no partition.
        if self._partitions and frozenset((a, b)) in self._partitions:
            return True
        return bool(self._oneway) and (a, b) in self._oneway

    # ------------------------------------------------------------------ #
    # Per-link impairments
    # ------------------------------------------------------------------ #
    def impair_link(
        self, src: int, dst: int, symmetric: bool = True, **rates: float
    ) -> LinkImpairment:
        """Attach ``LinkImpairment(**rates)`` to *src→dst* (and the reverse
        direction when *symmetric*), replacing any previous one; returns it."""
        for node in (src, dst):
            if node not in self._nodes:
                raise UnknownDestinationError(f"no machine with id {node}")
        impairment = LinkImpairment(**rates)
        self._links[(src, dst)] = impairment
        if symmetric:
            self._links[(dst, src)] = impairment
        return impairment

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
    # The verdict
    # ------------------------------------------------------------------ #
    def verdict(self, src: int, dst: int) -> Optional[Verdict]:
        """Decide the fate of one datagram on *src → dst*; ``None`` = dropped.

        Draws, each only when its rate is > 0 and in this order: loss,
        corruption, the first copy's reorder hold (and its length),
        duplication, the duplicate's reorder hold.  The latency model
        draws once per copy, on its own stream.
        """
        if (self._partitions or self._oneway) and self.is_partitioned(src, dst):
            self.dropped_partition += 1
            return None
        link = self._links.get((src, dst)) if self._links else None
        loss = self.loss_rate
        duplicate = self.duplicate_rate
        corrupt = self.corrupt_rate
        if link is not None:
            loss = min(1.0, loss + link.loss_rate)
            duplicate = min(1.0, duplicate + link.duplicate_rate)
            if link.corrupt_rate:
                corrupt = min(1.0, corrupt + link.corrupt_rate)
        draws = self._draws
        if loss > 0.0 and draws.random() < loss:
            self.dropped_loss += 1
            return None
        mangled = False
        if corrupt > 0.0 and draws.random() < corrupt:
            self.corrupted += 1
            if self.checksum:
                self.corrupted_dropped += 1
                return None
            mangled = True
        # A fault-free datagram costs this one call: no helper frame.
        if link is None:
            delay = self._latency.sample_buffered(self._latency_draws) + self.extra_latency
        else:
            delay = self._delay(link)
        if duplicate > 0.0 and draws.random() < duplicate:
            # The duplicate crosses the same link, so it pays the same
            # extra latency / reorder hold as the original copy.
            self.duplicated += 1
            return mangled, delay, self._delay(link)
        return mangled, delay, None

    def _delay(self, link: Optional[LinkImpairment]) -> float:
        """One copy's one-way delay: base draw, spikes, link latency, hold."""
        delay = self._latency.sample_buffered(self._latency_draws) + self.extra_latency
        if link is not None:
            delay += link.extra_latency
            if link.reorder_rate > 0.0 and self._draws.random() < link.reorder_rate:
                delay += self._draws.random() * link.reorder_delay
                self.reordered += 1
        return delay
