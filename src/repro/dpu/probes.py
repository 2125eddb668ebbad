"""Delivery logging: the observation layer for the ABcast property checkers.

A :class:`DeliveryLog` is shared across the system; each stack hosts one
:class:`AbcastProbeModule` that records every Adelivery of the observed
service in arrival order.  Senders register their sends with
:meth:`DeliveryLog.note_send`.  Message identity is the application-level
payload key: the workload generator stamps every payload with a unique
``("wl", stack, seq)`` key, so identity survives replacement re-issues
(the same key may legitimately travel twice on the wire, but must be
Adelivered exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..kernel.module import Module
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..sim.clock import Time

__all__ = ["DeliveryLog", "AbcastProbeModule", "payload_key"]


def payload_key(payload: Any) -> Hashable:
    """The identity of an application payload.

    Payloads produced by the library's workload generator are tuples whose
    first element is a unique key; anything else is its own identity
    (must then be hashable and unique per ABcast call for the checkers to
    be meaningful).
    """
    if isinstance(payload, tuple) and len(payload) >= 1:
        return payload[0]
    return payload


@dataclass
class DeliveryLog:
    """Sends and per-stack delivery sequences of one observed service."""

    #: key -> (sender stack, send time)
    sends: Dict[Hashable, Tuple[int, Time]] = field(default_factory=dict)
    #: stack -> [(key, deliver time), ...] in local delivery order
    deliveries: Dict[int, List[Tuple[Hashable, Time]]] = field(default_factory=dict)
    #: Hooks invoked as ``hook(key, stack_id, time)`` on every delivery
    #: (the scenario engine's switch-after-N-messages trigger feeds on this).
    on_delivery: List[Callable[[Hashable, int, Time], None]] = field(
        default_factory=list
    )

    def note_send(self, key: Hashable, stack_id: int, time: Time) -> None:
        """Record that *stack_id* ABcast message *key* at *time*."""
        if key in self.sends:
            raise ValueError(f"duplicate send key {key!r}: keys must be unique")
        self.sends[key] = (stack_id, time)

    def note_delivery(self, key: Hashable, stack_id: int, time: Time) -> None:
        """Record that *stack_id* Adelivered message *key* at *time*."""
        self.deliveries.setdefault(stack_id, []).append((key, time))
        if self.on_delivery:
            for hook in list(self.on_delivery):
                hook(key, stack_id, time)

    def delivered_count(self, stack_id: int) -> int:
        """Number of deliveries recorded at *stack_id* (incl. duplicates)."""
        return len(self.deliveries.get(stack_id, []))

    # Convenience views ------------------------------------------------- #
    def delivery_sequence(self, stack_id: int) -> List[Hashable]:
        """Keys Adelivered by *stack_id*, in order."""
        return [k for k, _t in self.deliveries.get(stack_id, [])]

    def delivered_set(self, stack_id: int) -> set:
        """Set of keys Adelivered by *stack_id*."""
        return set(self.delivery_sequence(stack_id))

    def first_delivery_times(self) -> Dict[Hashable, Dict[int, Time]]:
        """``key -> {stack -> first delivery time}``, in one pass.

        Each inner map lists stacks in :attr:`deliveries` order, which
        the latency averages depend on to the last bit.
        """
        index: Dict[Hashable, Dict[int, Time]] = {}
        for stack_id, seq in self.deliveries.items():
            for key, t in seq:
                times = index.get(key)
                if times is None:
                    index[key] = {stack_id: t}
                elif stack_id not in times:
                    times[stack_id] = t
        return index


def is_workload_key(key: Hashable) -> bool:
    """Whether *key* identifies a workload-generator message.

    Experiments track only these: control traffic multiplexed onto the
    same abcast service (e.g. group-membership operations) has
    non-unique keys and is checked by its own consumer-level tests.
    """
    return isinstance(key, tuple) and len(key) == 3 and key[0] == "wl"


class AbcastProbeModule(Module):
    """Records every Adelivery of *service* on its stack into a shared log."""

    PROTOCOL = "abcast-probe"

    def __init__(
        self,
        stack: Stack,
        log: DeliveryLog,
        service: str = WellKnown.R_ABCAST,
        key_fn: Callable[[Any], Hashable] = payload_key,
        key_filter: Optional[Callable[[Hashable], bool]] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, name=name, provides=(), requires=(service,))
        self.log = log
        self.key_fn = key_fn
        self.key_filter = key_filter
        self.subscribe(service, "adeliver", self._on_adeliver)

    def _on_adeliver(self, origin: int, payload: Any, size_bytes: int) -> None:
        key = self.key_fn(payload)
        if self.key_filter is not None and not self.key_filter(key):
            return
        self.log.note_delivery(key, self.stack_id, self.now)
