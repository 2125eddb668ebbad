"""Protocol modules.

A module (paper, Section 2) is the per-stack implementation unit of a
protocol: it *provides* services, *requires* services, holds local state,
and exchanges messages across the network (via the services it requires —
ultimately the ``udp`` service).

Interaction model (paper, Figure 2):

* a **service call** is a one-way downcall from a caller module to the
  module currently *bound* to the service;
* a **response** is a one-way upcall emitted by a provider module to the
  modules of its stack that require the service.  A module may respond
  *even after being unbound* — the kernel never gates responses on
  bindings, exactly as the paper specifies;
* a **query** is a synchronous, side-effect-free read (e.g. asking the
  failure detector for its suspect list).  Queries are this library's
  rendering of "may contain some local data" — shared-memory reads that
  cost no simulated time.

Handlers are registered explicitly (``export_call`` / ``export_query`` /
``subscribe``), never by naming convention, so fully generic modules —
like the replacement module, which wraps an *arbitrary* service — are
first-class citizens.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import KernelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .stack import Stack

__all__ = ["Module", "NOT_MINE"]


class _NotMine:
    """Sentinel a response handler returns to disclaim a response.

    Shared services (``udp``, ``rbcast``, ...) fan every response out to
    all subscribers, which demultiplex by frame tags.  A handler that
    inspects a frame and finds it belongs to someone else returns
    :data:`NOT_MINE`; if *every* handler disclaims a response, the stack
    buffers it and replays it when a new subscriber module is added.
    This implements the paper's rule that a response to a module not yet
    in the stack "is completed when Pj is added to stack j" — which is
    load-bearing during replacements: frames of the *new* protocol
    incarnation may arrive at a stack before that stack has created its
    new module.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<NOT_MINE>"


NOT_MINE = _NotMine()

CallHandler = Callable[..., None]
QueryHandler = Callable[..., Any]
ResponseHandler = Callable[..., Any]


class Module:
    """Base class for every protocol module.

    Subclasses usually set the class attributes :attr:`PROVIDES`,
    :attr:`REQUIRES` and :attr:`PROTOCOL`, register handlers in
    ``__init__``, and override :meth:`on_start` to arm timers.

    Parameters
    ----------
    stack:
        The stack this module is created for.  The module is *not* added
        to the stack by the constructor — use :meth:`Stack.add_module` —
        but it needs the reference for registration helpers.
    name:
        Unique (within the stack) instance name; auto-derived when ``None``.
    provides / requires / protocol:
        Instance-level overrides of the class attributes, used by generic
        modules such as the replacement module.
    """

    #: Services provided by instances of this class (class-level default).
    PROVIDES: Tuple[str, ...] = ()
    #: Services required by instances of this class (class-level default).
    REQUIRES: Tuple[str, ...] = ()
    #: Protocol identity: identical modules on different stacks share it.
    PROTOCOL: str = ""

    def __init__(
        self,
        stack: "Stack",
        name: Optional[str] = None,
        provides: Optional[Sequence[str]] = None,
        requires: Optional[Sequence[str]] = None,
        protocol: Optional[str] = None,
    ) -> None:
        self.stack = stack
        #: Rank of the hosting stack (= machine id = network address).  A
        #: plain attribute, fixed for the module's lifetime: it is read on
        #: every datagram and dispatch.
        self.stack_id: int = stack.stack_id
        self.provides: Tuple[str, ...] = tuple(provides if provides is not None else self.PROVIDES)
        self.requires: Tuple[str, ...] = tuple(requires if requires is not None else self.REQUIRES)
        self.protocol: str = protocol if protocol is not None else (self.PROTOCOL or type(self).__name__)
        self.name: str = name if name is not None else stack.fresh_module_name(self.protocol)
        self._call_handlers: Dict[Tuple[str, str], CallHandler] = {}
        self._query_handlers: Dict[Tuple[str, str], QueryHandler] = {}
        self._response_handlers: Dict[Tuple[str, str], ResponseHandler] = {}
        self.started = False
        self.stopped = False

    # ------------------------------------------------------------------ #
    # Handler registration
    # ------------------------------------------------------------------ #
    def export_call(self, service: str, method: str, fn: CallHandler) -> None:
        """Declare that this module handles downcall *method* of *service*."""
        if service not in self.provides:
            raise KernelError(
                f"{self.name}: cannot export call on {service!r}; provides {self.provides}"
            )
        self._call_handlers[(service, method)] = fn
        self.stack._invalidate_handler(service, method)

    def export_query(self, service: str, query: str, fn: QueryHandler) -> None:
        """Declare that this module answers synchronous *query* of *service*."""
        if service not in self.provides:
            raise KernelError(
                f"{self.name}: cannot export query on {service!r}; provides {self.provides}"
            )
        self._query_handlers[(service, query)] = fn

    def subscribe(self, service: str, event: str, fn: ResponseHandler) -> None:
        """Declare that this module consumes response *event* of *service*."""
        if service not in self.requires:
            raise KernelError(
                f"{self.name}: cannot subscribe to {service!r}; requires {self.requires}"
            )
        self._response_handlers[(service, event)] = fn
        self.stack._invalidate_subscribers(service, event)

    # Handler lookup (used by the stack) -------------------------------- #
    def call_handler(self, service: str, method: str) -> Optional[CallHandler]:
        """The registered handler for downcall *method*, or ``None``."""
        return self._call_handlers.get((service, method))

    def query_handler(self, service: str, query: str) -> Optional[QueryHandler]:
        """The registered handler for synchronous *query*, or ``None``."""
        return self._query_handlers.get((service, query))

    def response_handler(self, service: str, event: str) -> Optional[ResponseHandler]:
        """The registered handler for response *event*, or ``None``."""
        return self._response_handlers.get((service, event))

    # ------------------------------------------------------------------ #
    # Actions (delegate to the stack)
    # ------------------------------------------------------------------ #
    def call(self, service: str, method: str, *args: Any, cost: Optional[float] = None) -> None:
        """Issue a service call (one-way, dispatched to the bound provider)."""
        self.stack.issue_call(self, service, method, args, cost)

    def respond(self, service: str, event: str, *args: Any, cost: Optional[float] = None) -> None:
        """Emit a response event on a service this module provides.

        Permitted even when the module is currently unbound (paper,
        Section 2: "a module Qi can respond to a service call even if Qi
        has been unbound").
        """
        self.stack.issue_response(self, service, event, args, cost)

    def query(self, service: str, query: str, *args: Any) -> Any:
        """Synchronously query the module bound to *service*."""
        return self.stack.query(service, query, *args)

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any,
                  cancellable: bool = False) -> Optional[Any]:
        """Arm a timer on this stack's node (dies with the node).

        Routed through the stack's runtime backend (the
        :class:`~repro.runtime.api.NodeBackend` seam), so the same
        module runs unchanged on the simulator and on wall-clock
        backends.  Self-re-arming wheels and one-shot flushes never
        cancel, so no handle is allocated unless *cancellable*; then the
        result is a handle for :meth:`cancel_timer` (``None`` when the
        node is already down).
        """
        return self.stack.backend.set_timer(delay, fn, args, cancellable)

    def cancel_timer(self, handle: Any) -> None:
        """Cancel a handle from ``set_timer(..., cancellable=True)``.

        No-op once the timer fired; anything that is not such a handle
        raises.  This is the only sanctioned way for
        module code to disarm a timer — going to the engine directly
        (``self.sim.cancel``) would weld the module to the simulation
        backend.
        """
        self.stack.backend.cancel(handle)

    # ------------------------------------------------------------------ #
    # Lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Called once when the module is added to its stack."""

    def on_stop(self) -> None:
        """Called once when the module is removed from its stack."""

    def on_restart(self) -> None:
        """Called when the host machine recovers from a crash.

        Timers armed before the crash belong to the dead incarnation and
        never fire; a module whose liveness depends on a timer wheel
        (heartbeats, retransmissions, periodic work) re-arms it here.
        Module state survived the crash, so implementations re-arm from
        their surviving state rather than re-running :meth:`on_start`
        (which may have one-shot side effects such as minting a token).
        The default is a no-op: a purely message-driven module needs
        nothing.
        """

    # Convenience ------------------------------------------------------- #
    @property
    def sim(self) -> Any:
        """The scheduler this module's node runs on (the
        :class:`~repro.runtime.api.Scheduler` seam: the simulator in the
        discrete-event backend, a wall-clock scheduler in realtime)."""
        return self.stack.sim

    @property
    def now(self) -> float:
        """Current runtime time (simulated or wall-clock seconds)."""
        return self.stack.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} provides={self.provides}>"
