"""Measurement: the paper's latency definition, series tools, overhead."""

from .latency import (
    LatencyPoint,
    latency_series,
    mean_latency,
    message_latency,
    windowed_mean_latency,
)
from .series import PerturbationWindow, bin_series, find_perturbation
from .stats import relative_overhead

__all__ = [
    "message_latency",
    "LatencyPoint",
    "latency_series",
    "mean_latency",
    "windowed_mean_latency",
    "bin_series",
    "PerturbationWindow",
    "find_perturbation",
    "relative_overhead",
]
