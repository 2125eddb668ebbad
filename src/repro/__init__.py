"""repro: reproduction of "Structural and Algorithmic Issues of Dynamic
Protocol Update" (Rütti, Wojciechowski, Schiper; IPDPS 2006).

The library implements the paper's dynamic-protocol-update (DPU) solution
— a replacement module adding a level of indirection between service
callers and providers, plus the atomic-broadcast replacement algorithm —
together with every substrate it runs on: a deterministic discrete-event
simulator standing in for the paper's 7-PC cluster, a SAMOA-like protocol
kernel, a group-communication stack (UDP, reliable point-to-point,
failure detector, Chandra–Toueg consensus, atomic broadcast, group
membership), property checkers for the paper's correctness properties,
and the Maestro-style / Graceful-Adaptation-style baselines it compares
against.

Quickstart
----------
>>> from dataclasses import replace                          # doctest: +SKIP
>>> from repro.experiments import build_group_comm_system   # doctest: +SKIP
>>> from repro.scenarios.spec import PAPER_SPEC             # doctest: +SKIP
>>> gcs = build_group_comm_system(replace(PAPER_SPEC, n=3), seed=1)  # doctest: +SKIP

See ``examples/quickstart.py`` and ``docs/architecture.md`` for the full tour.
"""

from .errors import (
    KernelError,
    NetworkError,
    PropertyViolation,
    ReplacementError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "KernelError",
    "NetworkError",
    "ReplacementError",
    "PropertyViolation",
]

# The canonical public API lives in the subpackages
# (repro.sim, repro.kernel, repro.net, repro.fd, repro.consensus,
#  repro.abcast, repro.gm, repro.dpu, repro.baselines, repro.metrics,
#  repro.workload, repro.experiments, repro.viz).
