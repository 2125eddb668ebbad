"""The simulation backend: the existing engine behind the Backend API.

:class:`SimBackend` bundles the discrete-event pieces — one
:class:`~repro.sim.engine.Simulator`, *n*
:class:`~repro.sim.process.Machine` instances with their kernel
:class:`~repro.kernel.stack.Stack`\\ s, and one
:class:`~repro.net.network.SimNetwork` over a
:class:`~repro.net.topology.SwitchedLan` — behind the exact lifecycle
and accessor surface :class:`~repro.runtime.realtime.RealtimeBackend`
exposes, so harness code (the Figure-4 builder
:func:`~repro.experiments.common.build_group_comm_system`, which builds
one of these unless given a backend, and the conformance tests) is
written once against :class:`~repro.runtime.api.Backend` and runs on
either twin.

It is a *bundler*, not a reimplementation: the wrapped objects are the
unmodified engine classes, so everything built through ``SimBackend`` is
bit-identical to a hand-assembled ``System`` + ``SimNetwork`` with the
same parameters (the golden-report pins in
``tests/integration/test_golden_reports.py`` hold this to account).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ..kernel.events import TraceKind
from ..kernel.system import System
from ..net.network import SimNetwork
from ..net.topology import SwitchedLan
from .api import SIM_CALIBRATION, Backend, Calibration

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """The deterministic discrete-event twin of the runtime pair.

    Parameters
    ----------
    n:
        Number of nodes.
    seed:
        Root seed for all randomness of the run.
    loss_rate / duplicate_rate:
        LAN-wide impairment floors of the simulated switched LAN.
    trace_enabled, trace_kinds:
        Forwarded to :class:`~repro.kernel.system.System` unchanged.
    calibration:
        The kernel dispatch costs and LAN bandwidth this backend runs
        with, and what the stack set is built with; the simulated one
        unless a run wants another backend's timing on the sim.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        trace_enabled: bool = True,
        trace_kinds: Optional[Iterable[TraceKind]] = None,
        calibration: Calibration = SIM_CALIBRATION,
    ) -> None:
        self.calibration = calibration
        self.system = System(
            n=n,
            seed=seed,
            trace_enabled=trace_enabled,
            trace_kinds=trace_kinds,
            call_cost=calibration.call_cost,
            response_cost=calibration.response_cost,
        )
        lan = SwitchedLan(
            bandwidth_bps=calibration.bandwidth_bps,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
        )
        self.transport = SimNetwork(self.system.sim, self.system.machines, lan)
        self.system.network = self.transport
        #: Alias: harness code reads ``backend.network`` on either twin.
        self.network = self.transport

    # ------------------------------------------------------------------ #
    # Backend contract
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.system.n

    @property
    def nodes(self) -> List[Any]:
        """The simulated machines (each a NodeBackend)."""
        return self.system.machines

    @property
    def sim(self) -> Any:
        """The shared :class:`~repro.sim.engine.Simulator`."""
        return self.system.sim

    @property
    def stacks(self) -> List[Any]:
        """The kernel stacks, one per node."""
        return self.system.stacks

    @property
    def registry(self) -> Any:
        """The shared protocol registry."""
        return self.system.registry

    @property
    def trace(self) -> Any:
        """The shared trace recorder."""
        return self.system.trace

    def machine(self, i: int) -> Any:
        """Node *i* (system-compatible accessor)."""
        return self.system.machines[i]

    def start(self) -> None:
        """No-op: the simulated network needs no binding step."""

    def run(self, until: float) -> None:
        """Run the simulation up to instant *until*, where the clock lands."""
        self.system.run(until=until)

    def stop(self) -> None:
        """No-op: ``Simulator.run`` already fires the ``at_end`` hooks."""
