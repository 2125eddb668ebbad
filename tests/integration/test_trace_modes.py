"""Campaign reports must not depend on the kernel trace depth.

The campaign engine defaults to ``trace="structural"`` — recording only
the kinds the property checkers consume — so full-stack runs stop paying
one record allocation per dispatched call.  That is only sound if the
JSON report is **byte-identical** to a full-trace run, at every ``jobs``
fan-out.  These tests pin exactly that, plus the "off" depth for clean
runs, and that every entry point spells the depths as ``TRACE_MODES``.
"""

import pytest

from repro.errors import ScenarioError
from repro.experiments import build_group_comm_system
from repro.experiments.common import TRACE_MODES
from repro.fuzz.__main__ import main as fuzz_cli
from repro.kernel import STRUCTURAL_TRACE_KINDS, TraceKind
from repro.scenarios import Campaign, get_scenario, run_campaign, run_scenario
from repro.scenarios.__main__ import main as scenarios_cli


@pytest.fixture(scope="module")
def campaign():
    # One small, fast scenario with a switch (n=3): enough to exercise
    # call blocking, trace-backed checkers, and the report surface.
    return Campaign(name="trace-mode-probe",
                    scenarios=(get_scenario("latency-spike-switch"),))


class TestTraceModeIdentity:
    """Each test runs one fresh side and compares it with the session's
    memoised structural run of the same cell (``cells`` fixture)."""

    def test_structural_equals_full_report(self, campaign, cells):
        full = run_campaign(campaign, seeds=(0,), trace="full")
        structural = cells.report(campaign.name, "latency-spike-switch", (0,))
        assert structural.to_json() == full.to_json()

    def test_off_equals_full_report_on_clean_run(self, campaign, cells):
        # With tracing fully off the trace-backed checkers are vacuous;
        # on a violation-free run the report bytes must still agree.
        # The structural report stands in for the full one: the test
        # above pins the two byte-identical.
        structural = cells.report(campaign.name, "latency-spike-switch", (0,))
        off = run_campaign(campaign, seeds=(0,), trace="off")
        assert structural.ok
        assert off.to_json() == structural.to_json()

    def test_structural_identical_across_jobs(self, campaign, cells):
        serial = cells.report(campaign.name, "latency-spike-switch", (0, 1))
        parallel = run_campaign(campaign, seeds=(0, 1), trace="structural", jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_unknown_trace_mode_rejected(self):
        spec = get_scenario("latency-spike-switch")
        with pytest.raises(ScenarioError, match="trace mode"):
            run_scenario(spec, trace="verbose")
        with pytest.raises(ScenarioError, match="trace mode"):
            build_group_comm_system(spec, trace="verbose")

    def test_modes_are_the_recorder_keep_sets(self):
        spec = get_scenario("latency-spike-switch")
        for mode, keep in TRACE_MODES.items():
            assert build_group_comm_system(spec, trace=mode).backend.trace.keep == keep
        # Only an explicit "full" records the per-call firehose.
        assert build_group_comm_system(spec).backend.trace.keep is STRUCTURAL_TRACE_KINDS

    @pytest.mark.parametrize("cli", [scenarios_cli, fuzz_cli], ids=["scenarios", "fuzz"])
    def test_cli_trace_choices_are_the_modes(self, cli, capsys):
        with pytest.raises(SystemExit) as exited:
            cli(["--help"])
        assert exited.value.code == 0
        assert "--trace {%s}" % ",".join(TRACE_MODES) in capsys.readouterr().out


class TestStructuralKinds:
    def test_structural_kinds_cover_checker_inputs(self):
        # The checkers consume exactly these kinds; dropping one would
        # silently blunt a checker in every default campaign run.
        needed = {
            TraceKind.MODULE_ADDED,
            TraceKind.MODULE_REMOVED,
            TraceKind.BIND,
            TraceKind.UNBIND,
            TraceKind.CALL_BLOCKED,
            TraceKind.CALL_UNBLOCKED,
            TraceKind.CRASH,
            TraceKind.RECOVER,
        }
        assert needed <= STRUCTURAL_TRACE_KINDS

    def test_structural_kinds_drop_the_firehose(self):
        for kind in (TraceKind.CALL, TraceKind.CALL_DISPATCHED,
                     TraceKind.RESPONSE, TraceKind.RESPONSE_BUFFERED):
            assert kind not in STRUCTURAL_TRACE_KINDS
