"""Consensus-based atomic broadcast (the paper's ABcast protocol).

The Chandra–Toueg reduction of atomic broadcast to consensus:

1. an ABcast message is R-broadcast to the group (dissemination);
2. each process accumulates R-delivered-but-unordered messages in
   ``unordered`` and, whenever that set is non-empty, proposes it (as a
   batch, sorted by uid) in the next consensus instance ``k``;
3. the decision of instance ``k`` — one process's batch — is Adelivered
   in deterministic (uid-sorted) order, skipping already-delivered uids;
   then instance ``k+1`` may start.

Instances are strictly sequential per process; decisions arriving out of
order (rbcast relays are not FIFO across channels) are buffered and
applied in instance order.  Consensus here is executed **on full message
payloads, not identifiers** — the paper explicitly notes its prototype
does the same ("the relatively large latency values are due to
non-optimized atomic broadcast algorithm (e.g., consensus is executed on
messages and not on message identifiers)"), and this choice is what makes
latency grow visibly with message size and group size.  An
identifier-only variant is an ablation knob (``consensus_on_ids=True``).

Fault tolerance: inherited from consensus and rbcast — any minority of
crash-stop failures.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..kernel.module import NOT_MINE
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..rbcast.reliable import RBCAST_SERVICE
from .base import AbcastModuleBase, AbcastRecord, Uid

__all__ = ["CtAbcastModule"]

_MSG = "ab.msg"
#: Frame overhead of one disseminated message (uid + tags).
_AB_HEADER = 16
#: Overhead of one batch entry inside a consensus proposal.
_BATCH_ENTRY_OVERHEAD = 16


class CtAbcastModule(AbcastModuleBase):
    """Atomic broadcast by reduction to Chandra–Toueg consensus."""

    REQUIRES = (RBCAST_SERVICE, WellKnown.CONSENSUS)
    PROTOCOL = "abcast-ct"

    def __init__(
        self,
        stack: Stack,
        group: Sequence[int],
        consensus_on_ids: bool = False,
        instance_tag: Optional[str] = None,
        consensus_service: str = WellKnown.CONSENSUS,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, group, instance_tag=instance_tag, name=name)
        # The consensus dependency is a *service name*, so this module can
        # transparently consume the r-consensus indirection level when the
        # consensus-replacement extension is installed.
        self.consensus_service = consensus_service
        self.requires = (RBCAST_SERVICE, consensus_service)
        self.consensus_on_ids = consensus_on_ids
        #: R-delivered but not yet Adelivered, keyed by uid.
        self._unordered: Dict[Uid, AbcastRecord] = {}
        #: Next consensus instance to apply.
        self._next_instance = 0
        #: Instances we have proposed in (to propose at most once each).
        self._proposed: set = set()
        #: Decisions that arrived ahead of ``_next_instance``.
        self._pending_decisions: Dict[int, tuple] = {}
        self.subscribe(RBCAST_SERVICE, "deliver", self._on_rbcast)
        self.subscribe(self.consensus_service, "decide", self._on_decide)

    # ------------------------------------------------------------------ #
    # ABcast: disseminate via reliable broadcast
    # ------------------------------------------------------------------ #
    def _abcast(self, payload: Any, size_bytes: int) -> None:
        uid = self._fresh_uid()
        self.counters.incr("abcasts")
        self.call(
            RBCAST_SERVICE,
            "broadcast",
            (_MSG, self.instance_tag, uid, payload, size_bytes),
            size_bytes + _AB_HEADER,
        )

    def _on_rbcast(self, origin: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _MSG):
            return NOT_MINE
        _, tag, uid, inner, inner_size = payload
        if tag != self.instance_tag:
            return NOT_MINE  # another incarnation's traffic
        if uid in self._adelivered or uid in self._unordered:
            return
        self._unordered[uid] = AbcastRecord(uid, inner, inner_size)
        self._maybe_propose()

    # ------------------------------------------------------------------ #
    # Ordering: sequential consensus instances on batches
    # ------------------------------------------------------------------ #
    def _maybe_propose(self) -> None:
        k = self._next_instance
        if k in self._proposed or not self._unordered:
            return
        if k in self._pending_decisions:
            return  # the decision is already here; no point proposing
        self._proposed.add(k)
        batch = tuple(
            (uid, rec.payload, rec.size_bytes)
            for uid, rec in sorted(self._unordered.items())
        )
        if self.consensus_on_ids:
            proposal_size = len(batch) * _BATCH_ENTRY_OVERHEAD
        else:
            proposal_size = sum(size for _uid, _p, size in batch) + len(batch) * _BATCH_ENTRY_OVERHEAD
        self.counters.incr("proposals")
        # Consensus instances are namespaced by the incarnation tag so a
        # replacement installing a second CT-ABcast module can share the
        # one consensus module without instance-id collisions.
        self.call(self.consensus_service, "propose", (self.instance_tag, k), batch, proposal_size)

    def _on_decide(self, instance_key: Any, batch: Any, size_bytes: int):
        if not (isinstance(instance_key, tuple) and len(instance_key) == 2):
            return NOT_MINE
        tag, instance_id = instance_key
        if tag != self.instance_tag:
            return NOT_MINE  # another incarnation's instance
        if instance_id < self._next_instance:
            return None  # replayed decision we already applied
        self._pending_decisions[instance_id] = batch
        while self._next_instance in self._pending_decisions:
            decided = self._pending_decisions.pop(self._next_instance)
            self._apply_decision(decided)
            self._next_instance += 1
        self._maybe_propose()

    def _apply_decision(self, batch: tuple) -> None:
        self.counters.incr("batches_applied")
        for uid, payload, size in sorted(batch, key=lambda entry: entry[0]):
            self._unordered.pop(uid, None)
            self._adeliver_record(AbcastRecord(uid, payload, size))
