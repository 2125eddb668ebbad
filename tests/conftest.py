"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.kernel import Module, System
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def system() -> System:
    """A three-stack system without a network."""
    return System(n=3, seed=1234)


class RecordingModule(Module):
    """A minimal consumer module that records every response it sees."""

    PROTOCOL = "recorder"

    def __init__(self, stack, service: str, events: tuple = ("deliver",)):
        super().__init__(stack, provides=(), requires=(service,))
        self.records: list = []
        for event in events:
            self.subscribe(
                service,
                event,
                (lambda ev: lambda *args: self.records.append((ev, args)))(event),
            )


@pytest.fixture
def recording_module_cls():
    return RecordingModule
