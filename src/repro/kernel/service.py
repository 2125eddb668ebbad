"""Services: named specifications of distributed protocols.

The paper (Section 2) distinguishes a *service* — the specification — from
a *protocol* — the set of identical modules implementing it, one per
stack.  In code a service is just a validated name plus optional metadata
describing its call/response vocabulary.  Identity is by name: two
:class:`ServiceSpec` objects with the same name denote the same service.

Well-known service names used by the group-communication stack of the
paper's Figure 4 are collected in :class:`WellKnown`, and
:func:`replacement_service_name` implements the paper's ``r-p`` naming
convention for the indirection level added by a replacement module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

__all__ = ["ServiceSpec", "WellKnown", "replacement_service_name", "is_replacement_service"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")

#: Prefix of the indirection service provided by a replacement module for
#: service ``p`` (the paper writes it ``r-p``).
_REPL_PREFIX = "r-"


@dataclass(frozen=True)
class ServiceSpec:
    """A service: a name plus its declared calls, queries, and responses.

    The vocabulary sets are documentation and validation aids — the kernel
    enforces them only when they are non-empty, so lightweight services
    can omit them entirely.

    Attributes
    ----------
    name:
        Lower-case identifier, e.g. ``"abcast"``.
    calls:
        Names of downcall methods callers may invoke (e.g. ``{"abcast"}``).
    queries:
        Names of synchronous, side-effect-free queries (e.g. FD's
        ``{"suspects"}``).
    responses:
        Names of upcall events the provider may emit (e.g. ``{"adeliver"}``).
    """

    name: str
    calls: FrozenSet[str] = field(default_factory=frozenset)
    queries: FrozenSet[str] = field(default_factory=frozenset)
    responses: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"invalid service name {self.name!r}: must match {_NAME_RE.pattern}"
            )
        object.__setattr__(self, "calls", frozenset(self.calls))
        object.__setattr__(self, "queries", frozenset(self.queries))
        object.__setattr__(self, "responses", frozenset(self.responses))

    def allows_call(self, method: str) -> bool:
        """Whether *method* is a declared (or undeclared-and-unchecked) call."""
        return not self.calls or method in self.calls

    def allows_response(self, event: str) -> bool:
        """Whether *event* is a declared (or undeclared-and-unchecked) response."""
        return not self.responses or event in self.responses


def replacement_service_name(service: str) -> str:
    """The paper's ``r-p`` convention: the indirection service for ``p``.

    >>> replacement_service_name("abcast")
    'r-abcast'
    """
    return _REPL_PREFIX + service


def is_replacement_service(service: str) -> bool:
    """``True`` for names produced by :func:`replacement_service_name`."""
    return service.startswith(_REPL_PREFIX)


class WellKnown:
    """Well-known service names of the Figure 4 group-communication stack."""

    #: Unreliable datagram service (the network itself, ``Net`` in Fig. 1).
    UDP = "udp"
    #: Reliable FIFO point-to-point channels.
    RP2P = "rp2p"
    #: Failure detector (◊S in the paper).
    FD = "fd"
    #: Distributed consensus (Chandra–Toueg).
    CONSENSUS = "consensus"
    #: Atomic broadcast.
    ABCAST = "abcast"
    #: The indirection service for abcast provided by the Repl module.
    R_ABCAST = replacement_service_name(ABCAST)
    #: Group membership.
    GM = "gm"


#: Specs with the full vocabulary, used by tests and documentation.
UDP_SPEC = ServiceSpec(WellKnown.UDP, calls={"send"}, responses={"deliver"})
RP2P_SPEC = ServiceSpec(WellKnown.RP2P, calls={"send"}, responses={"deliver"})
FD_SPEC = ServiceSpec(
    WellKnown.FD, queries={"suspects", "is_suspected"}, responses={"suspect", "restore"}
)
CONSENSUS_SPEC = ServiceSpec(WellKnown.CONSENSUS, calls={"propose"}, responses={"decide"})
ABCAST_SPEC = ServiceSpec(WellKnown.ABCAST, calls={"abcast"}, responses={"adeliver"})
GM_SPEC = ServiceSpec(WellKnown.GM, calls={"join", "leave"}, responses={"view"})


def spec_for(name: str) -> Optional[ServiceSpec]:
    """The well-known spec for *name*, if any."""
    for spec in (UDP_SPEC, RP2P_SPEC, FD_SPEC, CONSENSUS_SPEC, ABCAST_SPEC, GM_SPEC):
        if spec.name == name:
            return spec
    return None
