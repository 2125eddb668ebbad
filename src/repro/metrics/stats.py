"""Relative overhead for benchmark reporting."""

from __future__ import annotations

__all__ = ["relative_overhead"]


def relative_overhead(baseline: float, measured: float) -> float:
    """``(measured - baseline) / baseline`` — e.g. the ~5% layer cost."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (measured - baseline) / baseline
