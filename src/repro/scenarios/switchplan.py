"""Switch plans: when and how a scenario replaces its protocol.

The paper's experiments trigger ``changeABcast`` at a fixed instant "in
the middle of the experiment".  The scenario space needs richer triggers,
so a plan is a sequence of *steps*, each one switch with its own firing
condition:

* :class:`SwitchAt` — at absolute simulated time *at*;
* :class:`SwitchAfterDeliveries` — once a designated stack has Adelivered
  *count* messages (load-coupled switching);
* :class:`SwitchOnFault` — a fixed *delay* after the *fault_index*-th
  injected fault fires (switch-on-fault-detection: the operator reacting
  to trouble by moving to a sturdier protocol);
* :class:`SwitchIfStalled` — a **chain-level predicate trigger**: fires
  only if switch *version*'s convergence time exceeds *timeout* (the
  window is still open *timeout* seconds after its first stack started
  it) — the operator escalating to a sturdier protocol when a
  replacement drags; if the window closes in time the step never fires;
* :class:`SwitchAfterSwitch` — a *delay* after an earlier switch
  *version* reaches a phase, which is how plans express **back-to-back
  and deliberately overlapping (pipelined) replacement chains**:
  ``phase="completed"`` fires when the *first* stack completes the
  version (the rest of the group is typically still creating modules, so
  the next change lands squarely inside the open window),
  ``phase="started"`` fires when the first stack merely *starts* it
  (deeper overlap: the next change is requested while the requester's
  abcast service is still unbound and rides the blocked-call queue), and
  ``phase="closed"`` fires once every non-crashed stack completed it (a
  strict back-to-back chain).

:class:`SwitchPlan` arms the steps against a built system: it wires the
time/delivery/fault/version sources, falls back to the lowest-ranked
alive stack when the requesting stack is down at firing time, and
records every switch that actually fired for the campaign report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import ScenarioError
from ..sim.clock import Duration, Time
from ..sim.faults import FaultInjector, FaultRecord

__all__ = [
    "SwitchAt",
    "SwitchAfterDeliveries",
    "SwitchOnFault",
    "SwitchAfterSwitch",
    "SwitchIfStalled",
    "SwitchStep",
    "SwitchPlan",
]


@dataclass(frozen=True)
class SwitchAt:
    """Switch to *protocol* at absolute instant *at*."""

    protocol: str
    at: Time
    from_stack: int = 0


@dataclass(frozen=True)
class SwitchAfterDeliveries:
    """Switch to *protocol* once *on_stack* has Adelivered *count* messages."""

    protocol: str
    count: int
    on_stack: int = 0
    from_stack: int = 0


@dataclass(frozen=True)
class SwitchOnFault:
    """Switch to *protocol* a *delay* after the *fault_index*-th fault fires."""

    protocol: str
    fault_index: int = 0
    delay: Duration = 0.05
    from_stack: int = 0


@dataclass(frozen=True)
class SwitchAfterSwitch:
    """Switch to *protocol* a *delay* after switch *version* reaches *phase*.

    ``phase`` is one of ``"started"`` (first stack began the version's
    switch), ``"completed"`` (first stack bound the new module — the
    pipelining trigger: the rest of the window is still open) or
    ``"closed"`` (every non-crashed stack completed — back-to-back).
    ``from_stack=None`` (the default) requests the change from the stack
    that reached the phase — the only stack *guaranteed* to stamp the
    request with the fresh version's sequence number, which is what
    makes a pipelined chain land cleanly.  (For ``"closed"`` no single
    stack reaches the phase — a crash may close the window — so the
    default is the lowest-ranked alive stack.)  Pass an explicit rank to
    deliberately issue the change from a stack that may still be behind
    (its request goes out under a stale sn and exercises the guard /
    paper-literal anomaly machinery).
    """

    protocol: str
    version: int = 1
    phase: str = "completed"
    delay: Duration = 0.0
    from_stack: Optional[int] = None

    def __post_init__(self) -> None:
        if self.phase not in ("started", "completed", "closed"):
            raise ScenarioError(
                f"SwitchAfterSwitch phase must be 'started', 'completed' or "
                f"'closed', got {self.phase!r}"
            )
        if self.version < 1:
            raise ScenarioError("SwitchAfterSwitch chains off version >= 1")


@dataclass(frozen=True)
class SwitchIfStalled:
    """Switch to *protocol* if switch *version*'s convergence lags.

    A **chain-predicate trigger** ("when convergence time exceeds X"):
    armed when the first stack starts switch *version*, it checks
    *timeout* seconds later whether the version's window is still open —
    i.e. some non-crashed stack has not completed the switch.  If so,
    the replacement is judged stalled and this step fires (by default
    from the lowest-ranked alive stack); if the window closed in time,
    the step never fires.  This is the conditional escape hatch of a
    switch plan: "move to a sturdier protocol only if the current
    replacement drags".
    """

    protocol: str
    version: int = 1
    timeout: Duration = 1.0
    from_stack: Optional[int] = None

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ScenarioError("SwitchIfStalled watches version >= 1")
        if self.timeout <= 0.0:
            raise ScenarioError("SwitchIfStalled timeout must be > 0")


SwitchStep = Union[
    SwitchAt,
    SwitchAfterDeliveries,
    SwitchOnFault,
    SwitchAfterSwitch,
    SwitchIfStalled,
]


class SwitchPlan:
    """Arms a sequence of switch steps against a built system."""

    def __init__(self, steps: Sequence[SwitchStep]) -> None:
        self.steps = list(steps)
        #: Switches that actually fired: dicts with trigger/protocol/time.
        self.fired: List[Dict[str, Any]] = []

    def arm(self, gcs: Any, injector: FaultInjector) -> None:
        """Wire every step into *gcs* (a ``GroupCommSystem``)."""
        if not self.steps:
            return
        if gcs.manager is None:
            raise ScenarioError(
                "a switch plan needs the replacement layer (manager is None)"
            )
        sim = gcs.backend.sim
        for step in self.steps:
            if isinstance(step, SwitchAt):
                sim.schedule_at(step.at, self._fire, (gcs, step))
            elif isinstance(step, SwitchAfterDeliveries):
                self._arm_delivery_trigger(gcs, step)
            elif isinstance(step, SwitchOnFault):
                self._arm_fault_trigger(gcs, injector, step)
            elif isinstance(step, SwitchAfterSwitch):
                self._arm_version_trigger(gcs, step)
            elif isinstance(step, SwitchIfStalled):
                self._arm_stall_trigger(gcs, step)
            else:  # pragma: no cover - defensive
                raise ScenarioError(f"unknown switch step {step!r}")

    # ------------------------------------------------------------------ #
    # Trigger wiring
    # ------------------------------------------------------------------ #
    def _arm_delivery_trigger(self, gcs: Any, step: SwitchAfterDeliveries) -> None:
        """Fire *step* once its stack's Adelivery count reaches the target."""
        state = {"count": 0, "armed": True}

        def on_delivery(key: Any, stack_id: int, time: Time) -> None:
            if not state["armed"] or stack_id != step.on_stack:
                return
            state["count"] += 1
            if state["count"] >= step.count:
                state["armed"] = False
                # call_soon: never re-enter the stack from a delivery hook.
                gcs.backend.sim.call_soon(self._fire, gcs, step)

        gcs.log.on_delivery.append(on_delivery)

    def _arm_fault_trigger(
        self, gcs: Any, injector: FaultInjector, step: SwitchOnFault
    ) -> None:
        """Fire *step* a fixed delay after its designated fault fires."""
        def on_fault(index: int, record: FaultRecord) -> None:
            if index == step.fault_index:
                gcs.backend.sim.schedule(step.delay, self._fire, gcs, step)

        injector.on_fault.append(on_fault)

    def _arm_version_trigger(self, gcs: Any, step: SwitchAfterSwitch) -> None:
        """Fire *step* once switch *version* reaches the requested phase.

        The chained request defaults to the stack that reached the phase
        (the one whose ``seq_number`` provably matches the new version);
        an explicit ``from_stack`` overrides that — including the
        deliberately-stale case.  Each trigger fires at most once.
        """
        manager = gcs.manager
        state = {"armed": True}

        def fire_from(stack_id: Optional[int]) -> None:
            if not state["armed"]:
                return
            state["armed"] = False
            from_stack = step.from_stack if step.from_stack is not None else stack_id
            # from_stack may still be None ("closed" has no phase stack);
            # _fire then resolves it to the lowest-ranked alive stack.
            gcs.backend.sim.schedule(step.delay, self._fire, gcs, step, from_stack)

        if step.phase == "started":
            manager.on_version_started.append(
                lambda version, prot, stack_id, at: (
                    fire_from(stack_id) if version == step.version else None
                )
            )
        elif step.phase == "completed":
            manager.on_version_first_complete.append(
                lambda version, prot, stack_id, at: (
                    fire_from(stack_id) if version == step.version else None
                )
            )
        else:  # "closed"
            manager.on_version_closed.append(
                lambda version, prot, at: (
                    fire_from(None) if version == step.version else None
                )
            )

    def _arm_stall_trigger(self, gcs: Any, step: SwitchIfStalled) -> None:
        """Fire *step* iff version *step.version* is still open after the
        timeout (the chain-level "convergence time exceeds X" predicate).

        Armed off ``on_version_started`` so the timeout measures the
        version's own convergence time, not absolute simulation time.
        """
        manager = gcs.manager
        state = {"armed": True}

        def check() -> None:
            if not state["armed"]:
                return
            state["armed"] = False
            if manager.replacement_complete(step.version):
                return  # converged within the budget: predicate false
            self._fire(gcs, step, step.from_stack)

        def on_started(version: int, prot: str, stack_id: int, at: Time) -> None:
            if version == step.version and state["armed"]:
                gcs.backend.sim.schedule_at(at + step.timeout, check)

        manager.on_version_started.append(on_started)

    # ------------------------------------------------------------------ #
    # Firing
    # ------------------------------------------------------------------ #
    def _fire(self, gcs: Any, step: SwitchStep, from_stack: Optional[int] = None) -> None:
        """Request the change (from a fallback stack if the requester died)."""
        if from_stack is None:
            from_stack = getattr(step, "from_stack", None)
        nodes = gcs.backend.nodes
        if from_stack is None or nodes[from_stack].crashed:
            alive = [node.machine_id for node in nodes if not node.crashed]
            if not alive:
                return  # nobody left to request the switch
            from_stack = alive[0]
        gcs.manager.request_change(step.protocol, from_stack=from_stack)
        record = {
            "trigger": type(step).__name__,
            "protocol": step.protocol,
            "from_stack": from_stack,
            "time": gcs.backend.sim.now,
        }
        if isinstance(step, SwitchAfterSwitch):
            record["after_version"] = step.version
            record["phase"] = step.phase
        elif isinstance(step, SwitchIfStalled):
            record["stalled_version"] = step.version
            record["timeout"] = step.timeout
        self.fired.append(record)
