"""Runtime backends: the sim/real twin behind one module-facing API.

The :mod:`repro.runtime.api` ABCs name the seam; this package ships the
two implementations — :class:`SimBackend` (the deterministic
discrete-event twin, wrapping the existing engine bit-identically) and
:class:`RealtimeBackend` (asyncio UDP sockets and wall-clock timers) —
plus the :mod:`repro.runtime.soak` harness that boots real-socket
stacks on localhost and drives traffic through a mid-switch chain.
Faults on either twin go through one :class:`~repro.sim.faults.
FaultInjector` and the transport's :class:`~repro.net.links.LinkPolicy`.

The backend classes are exposed lazily (PEP 562): the core simulation
packages import :mod:`repro.runtime.api` at module load, so eagerly
importing the backends here (which import the core packages back)
would create a cycle.  ``from repro.runtime import RealtimeBackend``
works as usual.

See ``docs/runtime.md`` for the full API walk-through.
"""

from typing import Any

from .api import Backend, NodeBackend, Scheduler, Transport

__all__ = [
    "Backend",
    "NodeBackend",
    "Scheduler",
    "Transport",
    "SimBackend",
    "RealtimeBackend",
    "RealtimeNode",
    "RealtimeScheduler",
    "RealtimeUdpTransport",
    "encode_datagram",
    "decode_datagram",
    "register_wire_type",
    "WIRE_VERSION",
]

_LAZY = {
    "SimBackend": "sim_backend",
    "RealtimeBackend": "realtime",
    "RealtimeNode": "realtime",
    "RealtimeScheduler": "realtime",
    "RealtimeUdpTransport": "realtime",
    "encode_datagram": "codec",
    "decode_datagram": "codec",
    "register_wire_type": "codec",
    "WIRE_VERSION": "codec",
}


def __getattr__(name: str) -> Any:
    """Resolve the backend classes on first access (cycle-free imports)."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
