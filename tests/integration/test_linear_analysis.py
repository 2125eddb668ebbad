"""The analysis phase reads only the trace rows the checkers need.

A full-trace cell records every call, dispatch and response, but the
property checkers consume a handful of structural kinds.  These tests run
a real switch scenario at ``trace="full"`` with whole-stream access and
call/response records disabled, and bound the number of records built,
so a change that puts a full-stream scan back into the analysis phase,
or a checker that starts reading the firehose, fails here.
"""

import pytest

from repro.experiments import PROTOCOL_SEQ, PROTOCOL_TOKEN
from repro.kernel import TraceKind, TraceRecorder
from repro.scenarios import ScenarioSpec, SwitchAt, run_scenario

#: The kinds the engine's trace checkers read (CRASH goes through the
#: column-only ``crashes()``, which builds no record).
CHECKER_KINDS = (
    TraceKind.BIND,
    TraceKind.CALL_BLOCKED,
    TraceKind.CALL_UNBLOCKED,
    TraceKind.MODULE_ADDED,
    TraceKind.MODULE_REMOVED,
)

SPEC = ScenarioSpec(
    name="linear-analysis-probe",
    description="n=3 abcast-seq -> abcast-token at 0.3 s, full trace",
    n=3,
    duration=0.6,
    load_msgs_per_sec=200.0,
    initial_protocol=PROTOCOL_SEQ,
    switches=(SwitchAt(protocol=PROTOCOL_TOKEN, at=0.3, from_stack=0),),
)


@pytest.fixture
def counted_rows(monkeypatch):
    """Forbid whole-stream reads and firehose records; count built rows
    per recorder."""

    def forbidden(self):
        raise AssertionError("the analysis phase read the whole trace stream")

    def firehose(self, offset):
        raise AssertionError("the analysis phase built a call/response record")

    monkeypatch.setattr(TraceRecorder, "__iter__", forbidden)
    monkeypatch.setattr(TraceRecorder, "events", property(forbidden))
    monkeypatch.setattr(TraceRecorder, "_hot_row", firehose)
    built = {}
    row = TraceRecorder._row

    def counting_row(self, i):
        built[self] = built.get(self, 0) + 1
        return row(self, i)

    monkeypatch.setattr(TraceRecorder, "_row", counting_row)
    return built


def test_full_trace_cell_builds_only_checker_rows(counted_rows):
    result = run_scenario(SPEC, seed=0, trace="full")
    assert result.ok, result.violations
    assert result.switches_fired and result.final_protocols
    (recorder, built), = counted_rows.items()
    counts = recorder.counts()
    needed = sum(counts.get(kind.value, 0) for kind in CHECKER_KINDS)
    assert 0 < built <= needed
    # Teeth: the stream really is dominated by rows the checkers skip.
    assert len(recorder) > 20 * needed
