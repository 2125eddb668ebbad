"""The CT module: Chandra–Toueg consensus as a kernel service.

One module instance serves an unbounded sequence of consensus instances
(atomic broadcast consumes one per batch).  It owns:

* instance multiplexing — wire frames are ``('ct', instance_id, kind,
  round, value, ts, size)`` over RP2P;
* decision dissemination — decisions are R-broadcast (service ``rbcast``)
  exactly as in the original algorithm, so a decision reaching any
  correct process reaches all of them even if the deciding coordinator
  crashes mid-send;
* the **agreement cross-check**: two decide frames for one instance with
  different values would be a consensus-safety bug; the module raises
  :class:`~repro.errors.PropertyViolation` instead of masking it;
* pre-propose buffering — frames for instances this process has not yet
  proposed in wait until the local propose (a process without an initial
  value cannot participate; atomic broadcast guarantees every correct
  process eventually proposes in every instance it needs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import PropertyViolation
from ..kernel.module import Module, NOT_MINE
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..rbcast.reliable import RBCAST_SERVICE
from ..sim.monitors import Counter
from .instance import CtInstance

__all__ = ["CtConsensusModule"]

_TAG = "ct"
_DECIDE_TAG = "ct.dec"
#: Header bytes of one consensus frame beyond its value payload.
_CT_HEADER = 24


class CtConsensusModule(Module):
    """Chandra–Toueg ◊S consensus (rotating coordinator) kernel module."""

    PROVIDES = (WellKnown.CONSENSUS,)
    REQUIRES = (WellKnown.RP2P, WellKnown.FD, RBCAST_SERVICE)
    PROTOCOL = "consensus-ct"

    def __init__(
        self,
        stack: Stack,
        group: Sequence[int],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, name=name)
        self.group: Tuple[int, ...] = tuple(sorted(set(group)))
        if stack.stack_id not in self.group:
            raise ValueError(
                f"stack {stack.stack_id} is not in its consensus group {self.group!r}"
            )
        self.counters = Counter()
        # Instance ids are opaque hashable keys; atomic broadcast uses
        # ``(incarnation_tag, k)`` tuples.
        self._instances: Dict[Any, CtInstance] = {}
        self._decided: Dict[Any, Any] = {}
        self._pre_propose: Dict[Any, List[Tuple[int, str, int, Any, int, int]]] = {}

        self.export_call(WellKnown.CONSENSUS, "propose", self._propose)
        self.export_query(WellKnown.CONSENSUS, "is_decided", self._is_decided)
        self.subscribe(WellKnown.RP2P, "deliver", self._on_rp2p)
        self.subscribe(RBCAST_SERVICE, "deliver", self._on_rbcast)
        self.subscribe(WellKnown.FD, "suspect", self._on_suspect)

    # ------------------------------------------------------------------ #
    # Service interface
    # ------------------------------------------------------------------ #
    def _propose(self, instance_id: Any, value: Any, size_bytes: int) -> None:
        if instance_id in self._decided:
            # Already decided on this stack.  Re-emit the decision: the
            # proposer may be a module created *after* the original decide
            # response went out (e.g. a protocol incarnation installed by
            # a replacement, catching up on its first instances).
            decided_value, decided_size = self._decided[instance_id]
            self.respond(
                WellKnown.CONSENSUS, "decide", instance_id, decided_value, decided_size
            )
            return
        instance = self._get_instance(instance_id)
        if instance.proposed:
            return  # at most one proposal per instance per process
        self.counters.incr("proposals")
        instance.propose(value, size_bytes)
        # Frames that arrived before we had an estimate.
        for frame in self._pre_propose.pop(instance_id, []):
            src, kind, round_, val, ts, size = frame
            instance.on_message(src, kind, round_, val, ts, size)

    def _is_decided(self, instance_id: Any) -> bool:
        return instance_id in self._decided

    # ------------------------------------------------------------------ #
    # Instance plumbing
    # ------------------------------------------------------------------ #
    def _get_instance(self, instance_id: Any) -> CtInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            instance = CtInstance(
                instance_id=instance_id,
                group=self.group,
                my_rank=self.stack_id,
                send_fn=self._make_sender(instance_id),
                decide_fn=self._make_decider(instance_id),
                is_suspected=lambda rank: self.query(
                    WellKnown.FD, "is_suspected", rank
                ),
            )
            self._instances[instance_id] = instance
        return instance

    def _make_sender(self, instance_id: Any):
        def send(dst: int, kind: str, round_: int, value: Any, ts: int, size: int) -> None:
            self.counters.incr("frames_sent")
            self.call(
                WellKnown.RP2P,
                "send",
                dst,
                (_TAG, instance_id, kind, round_, value, ts, size),
                size + _CT_HEADER,
            )

        return send

    def _make_decider(self, instance_id: Any):
        def decide(value: Any, size: int) -> None:
            self.counters.incr("decide_broadcasts")
            self.call(
                RBCAST_SERVICE,
                "broadcast",
                (_DECIDE_TAG, instance_id, value, size),
                size + _CT_HEADER,
            )

        return decide

    # ------------------------------------------------------------------ #
    # Inbound frames
    # ------------------------------------------------------------------ #
    def _on_rp2p(self, src: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _TAG):
            return NOT_MINE
        _, instance_id, kind, round_, value, ts, size = payload
        if instance_id in self._decided:
            return
        instance = self._instances.get(instance_id)
        if instance is None or not instance.proposed:
            # No local estimate yet: park the frame until propose.
            self._pre_propose.setdefault(instance_id, []).append(
                (src, kind, round_, value, ts, size)
            )
            return
        instance.on_message(src, kind, round_, value, ts, size)

    def _on_rbcast(self, origin: int, payload: Any, size_bytes: int):
        if not (isinstance(payload, tuple) and payload and payload[0] == _DECIDE_TAG):
            return NOT_MINE
        _, instance_id, value, size = payload
        previous = self._decided.get(instance_id, _NOT_DECIDED)
        if previous is not _NOT_DECIDED:
            if previous[0] != value:
                raise PropertyViolation(
                    "consensus uniform agreement",
                    f"instance {instance_id} decided {previous[0]!r} and {value!r}",
                )
            return
        self._decided[instance_id] = (value, size)
        self.counters.incr("decisions")
        instance = self._instances.pop(instance_id, None)
        if instance is not None:
            instance.on_decided(value)
        self._pre_propose.pop(instance_id, None)
        self.respond(WellKnown.CONSENSUS, "decide", instance_id, value, size)

    # ------------------------------------------------------------------ #
    # Failure-detector stimuli
    # ------------------------------------------------------------------ #
    def _on_suspect(self, rank: int) -> None:
        for instance in list(self._instances.values()):
            instance.on_suspect(rank)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def decided_value(self, instance_id: Any) -> Any:
        """The decision of *instance_id* (KeyError if undecided)."""
        return self._decided[instance_id][0]

    @property
    def open_instances(self) -> int:
        """Number of instances currently undecided on this stack."""
        return len(self._instances)


class _NotDecided:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<not-decided>"


_NOT_DECIDED = _NotDecided()
