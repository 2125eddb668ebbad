"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from typing import Dict, Sequence, Tuple

import pytest

from repro.kernel import Module, System
from repro.scenarios import CampaignResult, get_scenario, run_scenario
from repro.scenarios.engine import ScenarioResult, result_from_dict
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


class CellMemo:
    """Library scenario cells, each run once per session.

    A cell is a deterministic function of ``(scenario, seed)`` (at the
    default structural trace), so a test that only *reads* its result
    can share one run.  A test whose subject is re-running (trace-mode,
    ``jobs`` or CLI identity) runs one fresh side and compares it with
    :meth:`report`.  Results are stored as JSON and rebuilt per call, so
    a test cannot mutate what the next one reads.
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, int], str] = {}

    def result(self, name: str, seed: int) -> ScenarioResult:
        """The :class:`ScenarioResult` of one sim cell."""
        key = (name, seed)
        if key not in self._cells:
            self._cells[key] = json.dumps(run_scenario(get_scenario(name), seed=seed).to_dict())
        return result_from_dict(json.loads(self._cells[key]))

    def report(self, campaign: str, name: str, seeds: Sequence[int]) -> CampaignResult:
        """The report ``run_campaign`` gives a one-scenario campaign
        named *campaign* over *seeds*, built from memoised cells."""
        return CampaignResult(campaign=campaign, seeds=list(seeds),
                              results=[self.result(name, seed) for seed in seeds])


@pytest.fixture(scope="session")
def cells() -> CellMemo:
    """The session's :class:`CellMemo`."""
    return CellMemo()
