"""Latency models: random variables for network and CPU delays.

A :class:`LatencyModel` is a distribution over non-negative durations.
Models are cheap value objects; sampling takes the generator explicitly so
that each component draws from its own named stream (see
:mod:`repro.sim.random`).

The default model used by the experiments, :func:`lan_latency`, imitates a
switched 100Base-TX Ethernet as in the paper's testbed: a fixed
propagation/switching floor plus a small lognormal jitter tail.  The
*transmission* component (bytes / bandwidth) is handled separately by the
network layer because it depends on the message size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .clock import Duration, us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .random import BufferedDraws

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "lan_latency",
]


class LatencyModel:
    """Base class: a distribution over non-negative durations (seconds)."""

    def sample(self, rng: np.random.Generator) -> Duration:
        """Draw one duration."""
        raise NotImplementedError

    def mean(self) -> Duration:
        """The distribution's mean, used for calibration and documentation."""
        raise NotImplementedError

    def sample_buffered(self, draws: "BufferedDraws") -> Duration:
        """Draw one duration through a :class:`~repro.sim.random.BufferedDraws`.

        Equivalent to :meth:`sample` on the wrapped stream but served from
        vectorised blocks; hot paths (the network's per-datagram delay)
        call this.  Models that do not override it fall back to a scalar
        draw on the raw generator (discarding any buffered values, which
        keeps the stream deterministic).
        """
        return self.sample(draws.raw)


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Always exactly *value* seconds (useful for deterministic tests)."""

    value: Duration

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"latency must be non-negative, got {self.value}")

    def sample(self, rng: np.random.Generator) -> Duration:
        return self.value

    def sample_buffered(self, draws: "BufferedDraws") -> Duration:
        return self.value

    def mean(self) -> Duration:
        return self.value


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """``floor`` plus a lognormal tail parameterised by its own mean/sigma.

    ``tail_mean`` is the desired *mean of the tail* (not of the underlying
    normal); ``sigma`` is the shape parameter of the underlying normal.
    Lognormal jitter matches measured LAN round-trip residuals well and is
    the default in :func:`lan_latency`.
    """

    tail_mean: Duration
    sigma: float = 0.5
    floor: Duration = 0.0
    #: mu of the underlying normal, derived once at construction (a
    #: ``math.log`` per draw is measurable on the per-datagram path).
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tail_mean <= 0:
            raise ValueError("tail_mean must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.floor < 0:
            raise ValueError("floor must be non-negative")
        # mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        object.__setattr__(
            self, "mu", math.log(self.tail_mean) - 0.5 * self.sigma * self.sigma
        )

    def _mu(self) -> float:
        return self.mu

    def sample(self, rng: np.random.Generator) -> Duration:
        return self.floor + float(rng.lognormal(self.mu, self.sigma))

    def sample_buffered(self, draws: "BufferedDraws") -> Duration:
        return self.floor + draws.lognormal(self.mu, self.sigma)

    def mean(self) -> Duration:
        return self.floor + self.tail_mean


def lan_latency(
    floor: Duration = us(60.0),
    jitter_mean: Duration = us(25.0),
    sigma: float = 0.6,
) -> LatencyModel:
    """The default switched-LAN one-way latency model.

    Defaults imitate the paper's 100Base-TX switched Ethernet: ≈60 µs
    store-and-forward floor with a small lognormal jitter tail — the
    *propagation* part only; transmission time (size/bandwidth) is added
    by :class:`repro.net.network.SimNetwork`.
    """
    return LogNormalLatency(tail_mean=jitter_mean, sigma=sigma, floor=floor)
