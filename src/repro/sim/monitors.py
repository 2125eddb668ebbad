"""Simulation counters.

:class:`Counter` is the named-counter bag protocol modules keep their
statistics in (RP2P retransmissions, rbcast relays, ...); reports and
benchmarks read it back through ``module.counters``.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter"]


class Counter:
    """A named bag of monotonic counters (messages sent, retransmits, ...)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        """Add *amount* to counter *key* (creating it at zero)."""
        self._counts[key] = self._counts.get(key, 0) + amount

    def get(self, key: str) -> int:
        """Current value of *key* (0 if never incremented)."""
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        """A snapshot copy of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"
