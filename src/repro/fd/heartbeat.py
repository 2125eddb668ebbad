"""Heartbeat failure detector (the realistic ◊S implementation).

Every process sends a small heartbeat datagram to every peer each
``period``; a peer unheard-from for ``timeout`` seconds is suspected.
When a heartbeat arrives from a suspected peer the suspicion is dropped
**and that peer's timeout is increased** (multiplied by ``backoff``, up to
``max_timeout``) — the standard adaptive trick that yields the ◊S
*eventual* accuracy property in partially synchronous runs: after finitely
many false suspicions the timeout exceeds the real message delay and the
peer is never wrongly suspected again.

Crash-recovery support:

* the heartbeat payload carries the sender's **incarnation epoch**
  (``(tag, rank, epoch)``; the documented rank + epoch wire format of
  ``_HB_BYTES``).  A heartbeat from an epoch *older* than the highest one
  seen from that peer is a straggler from a dead incarnation — e.g.
  delayed by a latency spike or reorder burst — and is dropped instead
  of falsely refreshing the peer's liveness;
* a heartbeat from a *newer* epoch announces a restarted peer: the
  suspicion is lifted **without** the false-suspicion penalty (the
  suspicion was correct — the peer really was down) and the adaptive
  timeout resets to its initial value for the new incarnation;
* :meth:`on_restart` re-arms the tick wheel when this detector's own
  machine recovers, and grants every peer a fresh grace period so stale
  pre-crash ``_last_heard`` values do not trigger an instant suspicion
  storm;
* peers may be added after construction (:meth:`watch`) — GM re-join
  admits members dynamically — and heartbeats from a not-yet-watched
  rank auto-register it, so no per-peer table ever raises ``KeyError``.

Heartbeats ride raw UDP (not RP2P): a retransmitted heartbeat would be
worse than a missed one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..kernel.module import NOT_MINE
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..sim.clock import Duration, ms
from .base import FdModuleBase

__all__ = ["HeartbeatFd"]

_HB = "fd.hb"
#: Wire size of a heartbeat datagram payload (rank + epoch).
_HB_BYTES = 12

#: Defaults tuned for the simulated LAN: sub-ms delays, so 50 ms period /
#: 200 ms initial timeout keeps FD traffic negligible next to the load.
DEFAULT_PERIOD: Duration = ms(50.0)
DEFAULT_TIMEOUT: Duration = ms(200.0)
DEFAULT_MAX_TIMEOUT: Duration = ms(2000.0)


class HeartbeatFd(FdModuleBase):
    """Adaptive heartbeat ◊S failure detector over UDP."""

    REQUIRES = (WellKnown.UDP,)
    PROTOCOL = "fd-heartbeat"

    def __init__(
        self,
        stack: Stack,
        peers: Sequence[int],
        period: Duration = DEFAULT_PERIOD,
        timeout: Duration = DEFAULT_TIMEOUT,
        backoff: float = 1.5,
        max_timeout: Duration = DEFAULT_MAX_TIMEOUT,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, peers, name=name)
        if period <= 0 or timeout <= 0:
            raise ValueError("period and timeout must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        self.period = period
        self.initial_timeout = timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self._timeout: Dict[int, Duration] = {p: timeout for p in self.peers}
        self._last_heard: Dict[int, float] = {}
        #: Highest incarnation epoch seen per peer (absent = never heard).
        self._peer_epoch: Dict[int, int] = {}
        self.false_suspicions = 0
        #: Heartbeats dropped because they came from a dead incarnation.
        self.stale_heartbeats_dropped = 0
        #: Peer restarts observed (epoch advanced in a heartbeat).
        self.restarts_observed = 0
        self.subscribe(WellKnown.UDP, "deliver", self._on_udp)

    def on_start(self) -> None:
        now = self.now
        for p in self.peers:
            self._last_heard[p] = now
        self._tick()

    def on_restart(self) -> None:
        # The tick timer died with the old incarnation.  Reset every
        # peer's deadline to "heard just now" — the surviving
        # ``_last_heard`` values predate the outage and would otherwise
        # suspect every peer on the first post-recovery tick — then
        # re-arm the wheel (the immediate tick also announces our new
        # epoch to the group, which is what lifts their suspicion of us).
        now = self.now
        for p in self.peers:
            self._last_heard[p] = now
        self._tick()

    # ------------------------------------------------------------------ #
    # Dynamic peers
    # ------------------------------------------------------------------ #
    def watch(self, rank: int) -> None:
        """Start monitoring *rank* (a peer admitted after construction).

        Idempotent; grants the new peer a full fresh timeout before the
        first suspicion check.
        """
        if rank == self.stack_id or rank in self._timeout:
            return
        if rank not in self.peers:
            self.peers = tuple(sorted((*self.peers, rank)))
        self._timeout[rank] = self.initial_timeout
        self._last_heard[rank] = self.now

    # ------------------------------------------------------------------ #
    # Periodic work: send heartbeats, check timeouts
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        epoch = self.stack.machine.epoch
        for p in self.peers:
            self.call(WellKnown.UDP, "send", p, (_HB, self.stack_id, epoch), _HB_BYTES)
        now = self.now
        for p in self.peers:
            if p in self._suspected:
                continue
            last = self._last_heard.setdefault(p, now)
            if now - last > self._timeout.setdefault(p, self.initial_timeout):
                self._mark_suspected(p)
        self.set_timer(self.period, self._tick)

    # ------------------------------------------------------------------ #
    # Heartbeat receipt
    # ------------------------------------------------------------------ #
    def _on_udp(self, src: int, payload, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _HB):
            return NOT_MINE
        _, sender, epoch = payload
        known = self._peer_epoch.get(sender)
        if known is not None and epoch < known:
            # Straggler from a dead incarnation: it must not restore a
            # (correctly) suspected peer nor refresh its liveness.
            self.stale_heartbeats_dropped += 1
            return None
        self.watch(sender)  # first sight of a dynamically joined peer
        restarted = known is not None and epoch > known
        self._peer_epoch[sender] = epoch
        self._last_heard[sender] = self.now
        if restarted:
            # The peer really was down and came back: reset its adaptive
            # timeout for the new incarnation and lift the suspicion
            # without the false-suspicion penalty.
            self.restarts_observed += 1
            self._timeout[sender] = self.initial_timeout
            self._mark_restored(sender)
        elif sender in self._suspected:
            # False suspicion: repent and adapt the timeout upward.
            self.false_suspicions += 1
            self._timeout[sender] = min(
                self._timeout[sender] * self.backoff, self.max_timeout
            )
            self._mark_restored(sender)
        return None

    def current_timeout(self, rank: int) -> Duration:
        """The adaptive timeout currently applied to *rank*."""
        return self._timeout.get(rank, self.initial_timeout)
