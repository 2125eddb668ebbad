"""Protocol stacks (paper, Section 2): dispatch machinery of one machine.

A :class:`Stack` is the set of modules located on one machine, plus:

* the **binding table** (at most one bound provider per service),
* the **blocked-call queue**: a call issued while its service is unbound
  is queued and released when some module is bound — this is precisely the
  *weak stack-well-formedness* mechanism the replacement algorithm relies
  on between ``unbind`` (Algorithm 1, line 12) and ``bind`` (line 13/14),
* the **response router**: responses are delivered to every module of the
  stack that requires the service and subscribed to the event; responses
  with no subscriber are buffered and flushed when a subscriber appears
  (paper: "if Pj is not currently in stack j, the invocation made by Q is
  completed when Pj is added to stack j"),
* CPU accounting: every dispatch occupies the machine's serial CPU for a
  configurable cost, which is what makes indirection measurably non-free
  (the paper's ≈5 % replacement-layer overhead).

All interactions are one-way events except *queries*, which are
synchronous zero-cost reads (failure-detector suspect lists and similar).

Hot-path design
---------------
``issue_call`` → ``_dispatch_call`` is the dominant per-message cost of a
full-stack run (every send, deliver, heartbeat and consensus round goes
through it), so the common case — bound service, no blocked-call backlog
— takes a **fast path**:

* the ``(service, method) -> (provider, handler)`` resolution is served
  from :attr:`_dispatch_cache`, one dict probe instead of binding-table +
  handler-table hops; any ``bind``/``unbind`` invalidates it;
* a single :attr:`_blocked_total` counter guards the backlog check — only
  while some service has queued calls (i.e. during a replacement window)
  does dispatch fall back to the per-service slow path;
* trace recording is **opt-out**: per-kind flags cached from the
  recorder's read-only ``keep`` set mean a trace-off call never packs a
  record (``Stack(machine)`` uses the shared keep-nothing
  :data:`~repro.kernel.trace.NULL_TRACE` sink); a kept call, dispatch or
  response is one bound hot-log ``extend`` carrying the call's int seq,
  which the recorder renders as ``"<stack>:<seq>"`` only when a query
  builds the record;
* response fan-out is served from a cached per ``(service, event)``
  subscriber list, invalidated when the module set changes.

Blocked-call backlogs drain as a chain of 0-cost CPU tasks, one per
released call in issue order: each task pops one call, re-arms the next
task if calls remain, then invokes — so equal-time events and a released
handler's own CPU work keep their place in the machine's FIFO, and a
crash kills the re-armed task through the incarnation epoch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import KernelError, ModuleNotInStackError, UnknownServiceError
from ..runtime.api import NodeBackend
from ..sim.clock import Duration, us
from .binding import BindingTable
from .events import TraceKind
from .module import Module, NOT_MINE
from .trace import NULL_TRACE, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.api import Scheduler

__all__ = ["Stack", "DEFAULT_CALL_COST", "DEFAULT_RESPONSE_COST"]

#: Default CPU cost of dispatching one service call (~a method invocation
#: plus queueing in the Java framework the paper instruments).
DEFAULT_CALL_COST: Duration = us(10.0)
#: Default CPU cost of delivering one response event.
DEFAULT_RESPONSE_COST: Duration = us(10.0)

#: A queued blocked call: (call seq, caller name, method, args).
_BlockedCall = Tuple[int, str, str, tuple]
#: A buffered response: (event, args, provider name, protocol name).
_BufferedResponse = Tuple[str, tuple, str, str]


class Stack:
    """The modules, bindings and dispatch machinery of one machine.

    Parameters
    ----------
    machine:
        The simulated host this stack runs on.
    trace:
        The :class:`~repro.kernel.trace.TraceRecorder` kernel events go
        to: the system's shared one (what
        :class:`~repro.kernel.system.System` passes), or by default the
        shared keep-nothing :data:`~repro.kernel.trace.NULL_TRACE` sink
        (benchmark stacks pay no per-call record cost).
    call_cost / response_cost:
        Default CPU cost of one call / response dispatch.
    max_buffered_responses:
        Per-service cap on the unclaimed-response buffer (``None`` =
        unbounded).  Long-running systems that retire old protocol
        modules need the cap: frames of a retired incarnation are never
        claimed again.  Overflow drops the oldest entry.
    """

    __slots__ = (
        "machine",
        "stack_id",
        "backend",
        "restart_completed_at",
        "restart_completed_epoch",
        "trace",
        "call_cost",
        "response_cost",
        "max_buffered_responses",
        "buffered_responses_dropped",
        "modules",
        "bindings",
        "_sim",
        "_blocked_calls",
        "_blocked_total",
        "_responses_issued",
        "_buffered_responses",
        "_call_seq",
        "_module_ordinal",
        "_blocked_time_total",
        "_blocked_since",
        "_draining",
        "_dispatch_cache",
        "_response_cache",
        "_trace_call",
        "_trace_dispatch",
        "_trace_blocked",
        "_trace_unblocked",
        "_trace_response",
        "_trace_response_buffered",
        "_hot_log",
    )

    def __init__(
        self,
        machine: NodeBackend,
        trace: TraceRecorder = NULL_TRACE,
        call_cost: Duration = DEFAULT_CALL_COST,
        response_cost: Duration = DEFAULT_RESPONSE_COST,
        max_buffered_responses: Optional[int] = None,
    ) -> None:
        self.machine = machine
        #: Rank of this stack (= machine id = network address).  A plain
        #: slot, fixed for the stack's lifetime: every dispatch and trace
        #: record reads it.
        self.stack_id: int = machine.machine_id
        #: The runtime seam modules reach timers through (``Module.set_timer``
        #: routes here).  Today the backend *is* the machine — the alias
        #: exists so kernel and module code never name the concrete class.
        self.backend: NodeBackend = machine
        #: Instant / incarnation epoch of the last *completed* restart
        #: protocol (``None`` until the stack has restarted once).  The
        #: kernel-level "re-join" marker: scenarios without a group
        #: membership module use it to narrow recovery-liveness exemptions.
        self.restart_completed_at: Optional[float] = None
        self.restart_completed_epoch: Optional[int] = None
        self.trace = trace
        self.call_cost = call_cost
        self.response_cost = response_cost
        self.max_buffered_responses = max_buffered_responses
        self.buffered_responses_dropped = 0
        self.modules: Dict[str, Module] = {}
        self.bindings = BindingTable()
        self._sim = machine.sim
        self._blocked_calls: Dict[str, Deque[_BlockedCall]] = {}
        #: Total queued blocked calls across services: the fast-path guard.
        self._blocked_total = 0
        self._buffered_responses: Dict[str, Deque[_BufferedResponse]] = {}
        self._call_seq = 0
        self._responses_issued = 0
        self._module_ordinal = 0
        self._blocked_time_total: Duration = 0.0
        self._blocked_since: Dict[int, float] = {}  # call seq -> block instant
        self._draining: Dict[str, bool] = {}  # service -> drain task pending
        #: (service, method) -> (bound provider, handler): the call fast path.
        self._dispatch_cache: Dict[Tuple[str, str], Tuple[Module, Callable[..., None]]] = {}
        #: (service, event) -> subscribed handlers: the response fast path.
        self._response_cache: Dict[Tuple[str, str], List[Callable[..., Any]]] = {}
        # Per-kind keep-filter flags (the keep set is fixed at recorder
        # construction).  A kept firehose flag is the kind itself, read
        # from the slot at the hot-log site: ``TraceKind.X`` is a slow
        # lookup (EnumType.__getattr__).
        wants, kinds = trace.wants, TraceKind
        self._trace_call = wants(kinds.CALL) and kinds.CALL
        self._trace_dispatch = wants(kinds.CALL_DISPATCHED) and kinds.CALL_DISPATCHED
        self._trace_blocked = wants(kinds.CALL_BLOCKED)
        self._trace_unblocked = wants(kinds.CALL_UNBLOCKED)
        self._trace_response = wants(kinds.RESPONSE) and kinds.RESPONSE
        self._trace_response_buffered = wants(kinds.RESPONSE_BUFFERED) and kinds.RESPONSE_BUFFERED
        self._hot_log = trace._hot.extend  # see repro.kernel.trace
        machine.on_crash.append(self._on_machine_crash)
        machine.on_recover.append(self._on_machine_recover)

    # ------------------------------------------------------------------ #
    # Identity / convenience
    # ------------------------------------------------------------------ #
    @property
    def sim(self) -> "Scheduler":
        """The scheduler the hosting node runs on (the simulator in the
        discrete-event backend, a wall-clock scheduler in realtime)."""
        return self._sim

    @property
    def crashed(self) -> bool:
        """Whether the hosting machine is currently crashed."""
        return self.machine.crashed

    def module(self, name: str) -> Module:
        """Look up a module by instance name."""
        try:
            return self.modules[name]
        except KeyError:
            raise ModuleNotInStackError(
                f"stack {self.stack_id}: no module named {name!r}"
            ) from None

    def fresh_module_name(self, protocol: str) -> str:
        """A stack-unique instance name for a new module of *protocol*.

        Replacing a protocol by itself (the paper's Section 6 experiment)
        creates a second module of the same protocol in the same stack,
        so instance names carry an incarnation ordinal.
        """
        self._module_ordinal += 1
        return f"{protocol}#{self._module_ordinal}@{self.stack_id}"

    def modules_providing(self, service: str) -> List[Module]:
        """All modules of this stack that provide *service* (bound or not)."""
        return [m for m in self.modules.values() if service in m.provides]

    def bound_module(self, service: str) -> Optional[Module]:
        """The module currently bound to *service*, or ``None``."""
        return self.bindings.bound(service)

    # ------------------------------------------------------------------ #
    # Module lifecycle
    # ------------------------------------------------------------------ #
    def add_module(self, module: Module, bind: bool = True) -> Module:
        """Add *module* to the stack and optionally bind all its services.

        Binding only succeeds for services with no current provider; pass
        ``bind=False`` to add a dormant alternative implementation (the
        paper's model explicitly allows several providers per service as
        long as at most one is bound).
        """
        if module.stack is not self:
            raise KernelError(
                f"module {module.name!r} was created for stack "
                f"{module.stack.stack_id}, not {self.stack_id}"
            )
        if module.name in self.modules:
            raise KernelError(
                f"stack {self.stack_id}: duplicate module name {module.name!r}"
            )
        self.modules[module.name] = module
        self._response_cache.clear()
        self.trace.record(
            self._sim.now,
            TraceKind.MODULE_ADDED,
            self.stack_id,
            module=module.name,
            protocol=module.protocol,
            detail={"provides": module.provides, "requires": module.requires},
        )
        module.started = True
        module.on_start()
        if bind:
            for service in module.provides:
                self.bind(service, module)
        self._flush_buffered_responses(module)
        return module

    def remove_module(self, name: str) -> Module:
        """Remove a module (auto-unbinding it from any bound service)."""
        module = self.module(name)
        for service in self.bindings.services_of(module):
            self.unbind(service)
        del self.modules[name]
        self._response_cache.clear()
        self.trace.record(
            self._sim.now,
            TraceKind.MODULE_REMOVED,
            self.stack_id,
            module=module.name,
            protocol=module.protocol,
        )
        module.stopped = True
        module.on_stop()
        return module

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, service: str, module: Module) -> None:
        """Bind *module* to *service* and release any blocked calls."""
        if module.name not in self.modules:
            raise ModuleNotInStackError(
                f"stack {self.stack_id}: cannot bind {module.name!r}; not in stack"
            )
        self.bindings.bind(service, module)
        self._dispatch_cache.clear()
        self.trace.record(
            self._sim.now,
            TraceKind.BIND,
            self.stack_id,
            service=service,
            module=module.name,
            protocol=module.protocol,
        )
        self._release_blocked_calls(service)

    def unbind(self, service: str) -> Module:
        """Unbind whatever module is bound to *service*."""
        module = self.bindings.unbind(service)
        self._dispatch_cache.clear()
        self.trace.record(
            self._sim.now,
            TraceKind.UNBIND,
            self.stack_id,
            service=service,
            module=module.name,
            protocol=module.protocol,
        )
        return module

    def _invalidate_handler(self, service: str, method: str) -> None:
        """Drop one cached call resolution (a handler was re-exported)."""
        self._dispatch_cache.pop((service, method), None)

    def _invalidate_subscribers(self, service: str, event: str) -> None:
        """Drop one cached response fan-out (a subscription was added)."""
        self._response_cache.pop((service, event), None)

    # ------------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------------ #
    def issue_call(
        self,
        caller: Optional[Module],
        service: str,
        method: str,
        args: tuple,
        cost: Optional[Duration] = None,
    ) -> None:
        """Issue a one-way service call.

        The call occupies the CPU for *cost* seconds (default
        :attr:`call_cost`), then is dispatched to the module bound to the
        service *at dispatch time*.  If none is bound, it joins the
        blocked-call queue and is released by the next :meth:`bind`.
        """
        if cost is not None and not cost >= 0:  # NaN fails too
            raise KernelError(f"negative call cost {cost!r}")
        machine = self.machine
        # Hot path reads the node internal _crashed_at instead of the
        # crashed property: one attribute load per call.  Kernel and
        # NodeBackend are co-designed; keep this read in sync with the
        # property definition.
        if machine._crashed_at is not None:
            return
        seq = self._call_seq + 1
        self._call_seq = seq
        if self._trace_call:
            self._hot_log((
                self._sim.now, self._trace_call, self.stack_id, service,
                caller.name if caller is not None else "<external>", None,
                method, seq,
            ))
        machine.execute(
            self.call_cost if cost is None else cost,
            self._dispatch_call, (seq, caller, service, method, args),
        )

    def _dispatch_call(
        self, seq: int, caller: Optional[Module], service: str, method: str, args: tuple
    ) -> None:
        """CPU-completion half of a call: hand it to the bound provider.

        Fast path: no backlog anywhere on the stack and a warm
        ``(service, method)`` cache entry — one dict probe, optional
        trace record, handler invocation.
        """
        if not self._blocked_total:
            entry = self._dispatch_cache.get((service, method))
            if entry is not None:
                if self._trace_dispatch:
                    provider = entry[0]
                    self._hot_log((
                        self._sim.now, self._trace_dispatch, self.stack_id,
                        service, provider.name, provider.protocol, method, seq,
                    ))
                entry[1](*args)
                return
        provider = self.bindings.bound(service)
        # Join the queue not only while the service is unbound, but also
        # while an older backlog is still draining after a bind at this
        # same instant — otherwise an in-flight call whose CPU completion
        # lands just after the bind overtakes calls issued before it.
        if provider is None or self._blocked_calls.get(service):
            caller_name = caller.name if caller is not None else "<external>"
            queue = self._blocked_calls.setdefault(service, deque())
            queue.append((seq, caller_name, method, args))
            self._blocked_total += 1
            self._blocked_since[seq] = self._sim.now
            if self._trace_blocked:
                self.trace.record(
                    self._sim.now, TraceKind.CALL_BLOCKED, self.stack_id,
                    service, caller_name, None, method, seq,
                )
            if provider is not None:
                # The drain chain scheduled by the bind stops at the queue
                # it saw; make sure this straggler is drained too.
                self._release_blocked_calls(service)
            return
        self._invoke_provider(provider, seq, service, method, args)

    def _invoke_provider(
        self, provider: Module, seq: int, service: str, method: str, args: tuple
    ) -> None:
        """Resolve (and cache) the provider's handler, record, invoke."""
        key = (service, method)
        entry = self._dispatch_cache.get(key)
        if entry is not None and entry[0] is provider:
            handler = entry[1]
        else:
            handler = provider.call_handler(service, method)
            if handler is None:
                raise KernelError(
                    f"stack {self.stack_id}: module {provider.name!r} bound to "
                    f"{service!r} has no handler for call {method!r}"
                )
            self._dispatch_cache[key] = (provider, handler)
        if self._trace_dispatch:
            self._hot_log((
                self._sim.now, self._trace_dispatch, self.stack_id,
                service, provider.name, provider.protocol, method, seq,
            ))
        handler(*args)

    def _release_blocked_calls(self, service: str) -> None:
        """Start the drain of *service*'s backlog (idempotent).

        The backlog stays in the queue and drains in FIFO issue order, so
        :meth:`_dispatch_call` can see that older calls are still pending
        and keep issue order; a racing unbind simply pauses the drain
        until the next bind.
        """
        if self._blocked_calls.get(service) and not self._draining.get(service):
            self._draining[service] = True
            self.machine.execute(0.0, self._drain_blocked, (service,))

    def _drain_blocked(self, service: str) -> None:
        """One drain task: release the oldest queued call of *service*.

        Pops one call, re-arms the drain task if calls remain, *then*
        invokes it — one task per released call, so the rest of the
        backlog keeps its place ahead of anything the handler schedules.
        """
        self._draining[service] = False
        queue = self._blocked_calls.get(service)
        if not queue:
            return
        provider = self.bindings.bound(service)
        if provider is None:
            return  # unbound again; the next bind restarts the drain
        seq, caller_name, method, args = queue.popleft()
        self._blocked_total -= 1
        now = self._sim.now
        blocked_at = self._blocked_since.pop(seq, None)
        if blocked_at is not None:
            self._blocked_time_total += now - blocked_at
        if self._trace_unblocked:
            self.trace.record(
                now, TraceKind.CALL_UNBLOCKED, self.stack_id,
                service, caller_name, None, method, seq,
            )
        if queue:
            self._draining[service] = True
            self.machine.execute(0.0, self._drain_blocked, (service,))
        self._invoke_provider(provider, seq, service, method, args)

    @property
    def calls_issued(self) -> int:
        """Total service calls issued on this stack since construction."""
        return self._call_seq

    @property
    def responses_issued(self) -> int:
        """Total response events issued on this stack since construction."""
        return self._responses_issued

    def blocked_call_count(self, service: Optional[str] = None) -> int:
        """Number of calls currently blocked (on *service*, or overall)."""
        if service is not None:
            return len(self._blocked_calls.get(service, ()))
        return self._blocked_total

    @property
    def blocked_time_total(self) -> Duration:
        """Cumulative seconds calls spent blocked on unbound services."""
        return self._blocked_time_total

    # ------------------------------------------------------------------ #
    # Queries (synchronous reads)
    # ------------------------------------------------------------------ #
    def query(self, service: str, query: str, *args: Any) -> Any:
        """Synchronously query the module bound to *service*.

        Queries model shared-memory reads of a provider's local data (the
        FD suspect list being the canonical example); they cost no
        simulated time and cannot block, so querying an unbound service
        is a structural error.

        Each query resolves through the binding and handler tables; a
        resolution cache measured no faster end to end, so there is none.
        """
        provider = self.bindings.bound(service)
        if provider is None:
            raise UnknownServiceError(
                f"stack {self.stack_id}: query {query!r} on unbound service {service!r}"
            )
        handler = provider.query_handler(service, query)
        if handler is None:
            raise KernelError(
                f"stack {self.stack_id}: module {provider.name!r} has no query "
                f"{query!r} on service {service!r}"
            )
        return handler(*args)

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    def issue_response(
        self,
        provider: Module,
        service: str,
        event: str,
        args: tuple,
        cost: Optional[Duration] = None,
    ) -> None:
        """Emit response *event* of *service* to this stack's subscribers.

        Deliberately **not** gated on the binding table: an unbound module
        may still respond (paper, Section 2).
        """
        if cost is not None and not cost >= 0:  # NaN fails too
            raise KernelError(f"negative response cost {cost!r}")
        machine = self.machine
        if machine._crashed_at is not None:
            return
        if service not in provider.provides:
            raise KernelError(
                f"stack {self.stack_id}: module {provider.name!r} cannot respond "
                f"on service {service!r} it does not provide"
            )
        self._responses_issued += 1
        if self._trace_response:
            self._hot_log((
                self._sim.now, self._trace_response, self.stack_id, service,
                provider.name, provider.protocol, event, None,
            ))
        machine.execute(
            self.response_cost if cost is None else cost,
            self._deliver_response,
            (service, event, args, provider.name, provider.protocol),
        )

    def _subscribers(self, service: str, event: str) -> List[Callable[..., Any]]:
        """The (cached) handlers subscribed to *event* of *service*.

        Rebuilt lazily whenever the module set changes; order follows
        module insertion order, like the uncached scan did.
        """
        key = (service, event)
        handlers = self._response_cache.get(key)
        if handlers is None:
            handlers = [
                h
                for m in self.modules.values()
                if service in m.requires
                for h in (m.response_handler(service, event),)
                if h is not None
            ]
            self._response_cache[key] = handlers
        return handlers

    def _deliver_response(
        self, service: str, event: str, args: tuple,
        provider_name: str, provider_protocol: str,
    ) -> None:
        """CPU-completion half of a response: fan out to subscribers."""
        claimed = False
        handlers = self._response_cache.get((service, event))
        if handlers is None:
            handlers = self._subscribers(service, event)
        for handler in handlers:
            if handler(*args) is not NOT_MINE:
                claimed = True
        if not claimed:
            # Nobody in the stack owns this response (no subscriber at
            # all, or every subscriber disclaimed the frame): keep it
            # until a matching module is added (paper, Section 2).
            queue = self._buffered_responses.setdefault(service, deque())
            if (
                self.max_buffered_responses is not None
                and len(queue) >= self.max_buffered_responses
            ):
                queue.popleft()
                self.buffered_responses_dropped += 1
            queue.append((event, args, provider_name, provider_protocol))
            if self._trace_response_buffered:
                self._hot_log((
                    self._sim.now, self._trace_response_buffered, self.stack_id,
                    service, provider_name, provider_protocol, event, None,
                ))

    def _flush_buffered_responses(self, new_module: Module) -> None:
        """Deliver responses that were waiting for a subscriber like *new_module*."""
        for service in new_module.requires:
            buffered = self._buffered_responses.get(service)
            if not buffered:
                continue
            deliverable: List[_BufferedResponse] = []
            remaining: Deque[_BufferedResponse] = deque()
            for item in buffered:
                event = item[0]
                if new_module.response_handler(service, event) is not None:
                    deliverable.append(item)
                else:
                    remaining.append(item)
            self._buffered_responses[service] = remaining
            for event, args, provider_name, provider_protocol in deliverable:
                self.machine.execute(
                    0.0, self._deliver_response,
                    (service, event, args, provider_name, provider_protocol),
                )

    def buffered_response_count(self, service: Optional[str] = None) -> int:
        """Number of responses buffered awaiting a subscriber."""
        if service is not None:
            return len(self._buffered_responses.get(service, ()))
        return sum(len(q) for q in self._buffered_responses.values())

    # ------------------------------------------------------------------ #
    # Failure
    # ------------------------------------------------------------------ #
    def _on_machine_crash(self, time: float) -> None:
        """Machine crash hook: record, and let dead drain tasks restart."""
        # Pending drain tasks died with the CPU (epoch guard); clear the
        # flags so a post-recovery bind can restart the drains.
        self._draining.clear()
        self.trace.record(time, TraceKind.CRASH, self.stack_id)

    def _on_machine_recover(self, time: float) -> None:
        """Machine recovery hook: record, then run the restart protocol."""
        self.trace.record(
            time, TraceKind.RECOVER, self.stack_id, detail={"epoch": self.machine.epoch}
        )
        self.restart()

    def restart(self) -> None:
        """Re-arm the stack in the machine's new incarnation epoch.

        Every timer armed before the crash belongs to the dead epoch and
        will never fire, so a recovered machine would otherwise come back
        as a passive zombie: state intact, heartbeat/retransmission/load
        wheels all stopped.  The restart path gives each module its
        :meth:`~repro.kernel.module.Module.on_restart` hook (in stack
        order, bottom-most first — transports re-arm before the
        protocols that ride them) and then restarts the blocked-call
        drains whose 0-cost CPU tasks died with the old incarnation.
        """
        for module in list(self.modules.values()):
            module.on_restart()
        for service in [s for s, queue in self._blocked_calls.items() if queue]:
            self._release_blocked_calls(service)
        # Kernel-level "restart complete" marker: every module re-armed
        # in the new epoch and every surviving drain restarted.  Bare
        # scenarios (no GM re-join handshake) use this to narrow the
        # recovery-liveness exemption; GM-based scenarios keep using the
        # stronger group-level handshake instant.
        self.restart_completed_at = self._sim.now
        self.restart_completed_epoch = self.machine.epoch
        self.trace.record(
            self._sim.now,
            TraceKind.RESTART_COMPLETE,
            self.stack_id,
            detail={"epoch": self.machine.epoch},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Stack {self.stack_id} modules={list(self.modules)} "
            f"bound={self.bindings.as_dict()}>"
        )
