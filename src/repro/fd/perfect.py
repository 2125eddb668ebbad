"""A perfect failure detector (simulation-only oracle).

Reads crash state straight from the simulated machines: suspects exactly
the crashed peers, after a configurable detection delay, and never makes
a mistake.  Real systems cannot build this (it is strictly stronger than
◊S); it exists here to

* isolate protocol logic from FD noise in unit tests, and
* measure how much of an experiment's behaviour is attributable to
  detector quality (swap :class:`HeartbeatFd` ↔ :class:`PerfectFd` and
  compare — an ablation the paper's testbed could not run).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, TYPE_CHECKING

from ..kernel.stack import Stack
from ..sim.clock import Duration, ms
from .base import FdModuleBase

if TYPE_CHECKING:  # R1 seam purity: the sim oracle is typing-only here
    from ..sim.process import Machine

__all__ = ["PerfectFd"]


class PerfectFd(FdModuleBase):
    """Suspects exactly the crashed machines, ``detection_delay`` late."""

    REQUIRES = ()
    PROTOCOL = "fd-perfect"

    def __init__(
        self,
        stack: Stack,
        machines: Sequence[Machine],
        detection_delay: Duration = ms(10.0),
        poll_period: Duration = ms(5.0),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, [m.machine_id for m in machines], name=name)
        self._machines: Dict[int, Machine] = {
            m.machine_id: m for m in machines if m.machine_id != stack.stack_id
        }
        self.detection_delay = detection_delay
        self.poll_period = poll_period

    def on_start(self) -> None:
        self._poll()

    def on_restart(self) -> None:
        # The poll timer died with the old incarnation; re-arm it.
        self._poll()

    def _poll(self) -> None:
        now = self.now
        for rank, machine in self._machines.items():
            if (
                machine.crashed
                and machine.crashed_at is not None
                and now >= machine.crashed_at + self.detection_delay
            ):
                self._mark_suspected(rank)
            elif not machine.crashed and rank in self._suspected:
                # The machine recovered (crash-recovery runs): the oracle
                # sees it immediately and lifts the suspicion.
                self._mark_restored(rank)
        self.set_timer(self.poll_period, self._poll)
