"""The simulation backend: the existing engine behind the Backend API.

:class:`SimBackend` bundles the discrete-event pieces — one
:class:`~repro.sim.engine.Simulator`, *n*
:class:`~repro.sim.process.Machine` instances with their kernel
:class:`~repro.kernel.stack.Stack`\\ s, and one
:class:`~repro.net.network.SimNetwork` over a
:class:`~repro.net.topology.SwitchedLan` — behind the one run surface
:class:`~repro.runtime.api.Backend` declares, so harness code (the
Figure-4 builder :func:`~repro.experiments.common.build_group_comm_system`,
which builds one of these unless given a backend, and the conformance
tests) is written once and runs on either twin.

It is a *bundler*, not a reimplementation: the stacks live in a private
:class:`~repro.kernel.system.System` whose ``run`` advances the clock,
and everything built through ``SimBackend`` is bit-identical to a
hand-assembled ``System`` + ``SimNetwork`` with the same parameters (the
golden-report pins in ``tests/integration/test_golden_reports.py`` hold
this to account).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..kernel.events import TraceKind
from ..kernel.system import System
from ..net.network import SimNetwork
from ..net.topology import SwitchedLan
from .api import SIM_CALIBRATION, Backend, Calibration

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """The deterministic discrete-event twin of the runtime pair.

    Sets the :class:`~repro.runtime.api.Backend` surface: ``sim`` (the
    :class:`~repro.sim.engine.Simulator`), ``nodes`` (the
    :class:`~repro.sim.process.Machine`\\ s), ``transport`` (the
    :class:`~repro.net.network.SimNetwork`), ``stacks``, ``registry``,
    ``trace`` and ``calibration``.

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
        self._system = system = System(
            n=n,
            seed=seed,
            trace_enabled=trace_enabled,
            trace_kinds=trace_kinds,
            call_cost=calibration.call_cost,
            response_cost=calibration.response_cost,
        )
        self.sim = system.sim
        self.nodes = system.machines
        self.stacks = system.stacks
        self.registry = system.registry
        self.trace = system.trace
        lan = SwitchedLan(
            bandwidth_bps=calibration.bandwidth_bps,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
        )
        self.transport: SimNetwork = SimNetwork(system.sim, system.machines, lan)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._system.n

    def start(self) -> None:
        """No-op: the simulated network needs no binding step."""

    def run(self, until: float) -> None:
        """Run the simulation up to instant *until*, where the clock lands."""
        self._system.run(until=until)

    def stop(self) -> None:
        """No-op: the simulation holds no socket or loop to release."""
