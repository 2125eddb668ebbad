"""The simulated stack container.

A :class:`System` bundles what the paper calls "the set of stacks" on
the simulator: one simulator, *n* machines each hosting one protocol
stack, a shared trace recorder, and a shared protocol registry.
:class:`~repro.runtime.sim_backend.SimBackend` keeps one and advances
its clock through :meth:`System.run`; experiments reach the stacks
through that backend (see
:func:`repro.experiments.common.build_group_comm_system`).  Kernel unit
tests build a bare ``System``, populate its stacks by hand, run it, and
check properties on ``system.trace``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..errors import KernelError
from ..sim.clock import Duration, Time
from ..sim.engine import Simulator
from ..sim.process import Machine
from .events import TraceKind
from .registry import ProtocolRegistry
from .stack import DEFAULT_CALL_COST, DEFAULT_RESPONSE_COST, Stack
from .trace import TraceRecorder

__all__ = ["System"]


class System:
    """*n* machines, their stacks, and the shared run-time services.

    Parameters
    ----------
    n:
        Number of machines / stacks (the paper uses 3 and 7).
    seed:
        Root seed for all randomness of the run.
    sim:
        An existing simulator to attach to (a fresh one is created when
        ``None``).
    trace_kinds:
        The :class:`~repro.kernel.events.TraceKind` values the shared
        recorder keeps (its ``keep`` set): ``None`` records every kind,
        :data:`~repro.kernel.events.STRUCTURAL_TRACE_KINDS` only what the
        property checkers consume (the campaign depth: no per-call
        record firehose), and an empty set nothing (pure benchmarks).
    call_cost / response_cost:
        Default CPU cost of one service-call / response dispatch on every
        stack; see :class:`repro.kernel.stack.Stack`.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        trace_kinds: Optional[Iterable[TraceKind]] = None,
        call_cost: Duration = DEFAULT_CALL_COST,
        response_cost: Duration = DEFAULT_RESPONSE_COST,
    ) -> None:
        if n < 1:
            raise KernelError(f"a system needs at least one stack, got n={n}")
        self.n = int(n)
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.trace = TraceRecorder(keep=trace_kinds)
        self.registry = ProtocolRegistry()
        self.machines: List[Machine] = [
            Machine(self.sim, i) for i in range(self.n)
        ]
        self.stacks: List[Stack] = [
            Stack(m, self.trace, call_cost=call_cost, response_cost=response_cost)
            for m in self.machines
        ]

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def stack(self, i: int) -> Stack:
        """Stack of machine *i*."""
        return self.stacks[i]

    def machine(self, i: int) -> Machine:
        """Machine *i*."""
        return self.machines[i]

    def alive_ids(self) -> List[int]:
        """Ranks of machines that have not crashed."""
        return [m.machine_id for m in self.machines if not m.crashed]

    def alive_stacks(self) -> List[Stack]:
        """Stacks whose machines have not crashed."""
        return [s for s in self.stacks if not s.crashed]

    def crash(self, i: int) -> None:
        """Crash machine *i* now (crash-stop)."""
        self.machines[i].crash()

    def crash_at(self, i: int, time: Time) -> None:
        """Schedule machine *i* to crash at absolute instant *time*."""
        self.machines[i].crash_at(time)

    # ------------------------------------------------------------------ #
    # Population helpers
    # ------------------------------------------------------------------ #
    def on_each_stack(self, build: Callable[[Stack], None], only: Optional[Iterable[int]] = None) -> None:
        """Run *build(stack)* on every stack (or the given subset).

        This is how "a protocol is implemented by a set of identical
        modules, one per machine" is expressed in code.
        """
        targets = list(only) if only is not None else range(self.n)
        for i in targets:
            build(self.stacks[i])

    def create_module_everywhere(self, protocol_name: str, bind: bool = True) -> None:
        """Instantiate *protocol_name* (via the registry) on every stack."""
        for stack in self.stacks:
            self.registry.create_module(stack, protocol_name, bind=bind)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[Time] = None) -> None:
        """Run the simulation (see :meth:`repro.sim.engine.Simulator.run`)."""
        self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<System n={self.n} t={self.sim.now:.6f}>"
