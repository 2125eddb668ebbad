"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (7 PCs on switched
100 Mb/s Ethernet): a deterministic event loop (:class:`Simulator`),
simulated hosts with serial CPUs and crash-stop failures
(:class:`Machine`), latency distributions, named random streams, and
counters.
"""

from .clock import Duration, Time, format_time, ms, to_ms, to_us, us
from .engine import Simulator
from .events import (
    PRIORITY_CONTROL,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventHandle,
)
from .latency import (
    ConstantLatency,
    EmpiricalLatency,
    ExponentialLatency,
    LatencyModel,
    LogNormalLatency,
    ShiftedLatency,
    UniformLatency,
    lan_latency,
)
from .faults import FaultInjector, FaultRecord
from .monitors import Counter
from .process import Machine
from .random import BufferedDraws, RngRegistry, stable_hash64

__all__ = [
    "Time",
    "Duration",
    "ms",
    "us",
    "to_ms",
    "to_us",
    "format_time",
    "Simulator",
    "EventHandle",
    "PRIORITY_CONTROL",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
    "Machine",
    "FaultInjector",
    "FaultRecord",
    "RngRegistry",
    "BufferedDraws",
    "stable_hash64",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "LogNormalLatency",
    "EmpiricalLatency",
    "ShiftedLatency",
    "lan_latency",
    "Counter",
]
