"""The protocol registry and the ``create_module`` recursion.

Algorithm 1 of the paper (lines 22–28) creates a new protocol module and
then recursively satisfies its requirements::

    procedure create_module(p)
        create p
        bind p
        for all s in services required by p do
            if no module is bound to service s in stack i then
                find a module q providing service s
                create_module(q)

"find a module q providing service s" presupposes a catalogue of known
protocol implementations; :class:`ProtocolRegistry` is that catalogue.
This is the mechanism that makes the paper's solution *more flexible than
Graceful Adaptation*: a newly installed protocol may require services the
old one never used, and the recursion instantiates their providers on the
fly (experiment X2, ``tests/integration/test_flexibility.py``).

Resolution order for an unbound required service:

1. a module already in the stack providing the service (rebound rather
   than duplicated);
2. the registry's *default provider* for the service, if one is declared;
3. the first registered protocol providing the service (registration
   order — deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import RequirementError, UnknownProtocolError
from .module import Module
from .stack import Stack

__all__ = ["ProtocolInfo", "ProtocolRegistry"]

#: A protocol factory builds one module of the protocol for a given stack.
#: It must accept ``factory(stack, **kwargs)``; kwargs are only supplied
#: when the caller of ``create_module`` passes ``factory_kwargs``.
ProtocolFactory = Callable[..., Module]


@dataclass(frozen=True)
class ProtocolInfo:
    """Registry entry: how to build one module of a protocol."""

    name: str
    factory: ProtocolFactory
    provides: Tuple[str, ...]
    requires: Tuple[str, ...]


class ProtocolRegistry:
    """A catalogue of instantiable protocol implementations.

    One registry is shared by all stacks of a system, so every stack
    resolves a protocol name to the same implementation — the paper's
    "identical modules on different machines".
    """

    def __init__(self) -> None:
        self._protocols: Dict[str, ProtocolInfo] = {}
        self._default_provider: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: ProtocolFactory,
        provides: Tuple[str, ...],
        requires: Tuple[str, ...] = (),
        default_for: Tuple[str, ...] = (),
    ) -> ProtocolInfo:
        """Register protocol *name*.

        Parameters
        ----------
        default_for:
            Services for which this protocol becomes the default provider
            used by the :meth:`create_module` recursion.
        """
        if name in self._protocols:
            raise UnknownProtocolError(f"protocol {name!r} registered twice")
        info = ProtocolInfo(name, factory, tuple(provides), tuple(requires))
        self._protocols[name] = info
        for service in default_for:
            if service not in info.provides:
                raise RequirementError(
                    f"protocol {name!r} cannot be default for {service!r}: "
                    f"it only provides {info.provides}"
                )
            self._default_provider[service] = name
        return info

    def info(self, name: str) -> ProtocolInfo:
        """Look up a protocol by name."""
        try:
            return self._protocols[name]
        except KeyError:
            raise UnknownProtocolError(
                f"unknown protocol {name!r}; registered: {sorted(self._protocols)}"
            ) from None

    def known(self) -> List[str]:
        """Names of all registered protocols, in registration order."""
        return list(self._protocols)

    def providers_of(self, service: str) -> List[ProtocolInfo]:
        """Protocols providing *service*, in registration order."""
        return [p for p in self._protocols.values() if service in p.provides]

    def default_provider(self, service: str) -> Optional[ProtocolInfo]:
        """The provider :meth:`create_module` instantiates for *service*."""
        name = self._default_provider.get(service)
        if name is not None:
            return self._protocols[name]
        providers = self.providers_of(service)
        return providers[0] if providers else None

    # ------------------------------------------------------------------ #
    # Algorithm 1, lines 22-28
    # ------------------------------------------------------------------ #
    def create_module(
        self,
        stack: Stack,
        protocol_name: str,
        bind: bool = True,
        factory_kwargs: Optional[dict] = None,
        _visiting: Optional[Set[str]] = None,
    ) -> Module:
        """Create a module of *protocol_name* on *stack*, recursively
        instantiating providers for any required service that is unbound.

        Returns the module created for *protocol_name* itself.

        Parameters
        ----------
        factory_kwargs:
            Extra keyword arguments for the *top-level* factory only
            (e.g. the replacement module passes the agreed incarnation
            tag); recursively created providers get none.

        Raises
        ------
        RequirementError
            If some (transitively) required service has no provider in
            the stack or the registry, or on a cyclic requirement chain
            that cannot be closed.
        """
        visiting = _visiting if _visiting is not None else set()
        if protocol_name in visiting:
            raise RequirementError(
                f"cyclic requirement chain through protocol {protocol_name!r}"
            )
        visiting.add(protocol_name)
        info = self.info(protocol_name)

        module = info.factory(stack, **(factory_kwargs or {}))
        stack.add_module(module, bind=bind)

        for service in module.requires:
            if stack.bindings.is_bound(service):
                continue
            # Prefer re-binding an existing (unbound) in-stack provider.
            existing = stack.modules_providing(service)
            if existing:
                stack.bind(service, existing[0])
                continue
            provider = self.default_provider(service)
            if provider is None:
                raise RequirementError(
                    f"stack {stack.stack_id}: no provider for required service "
                    f"{service!r} (needed by {protocol_name!r})"
                )
            self.create_module(stack, provider.name, bind=True, _visiting=visiting)

        visiting.discard(protocol_name)
        return module
