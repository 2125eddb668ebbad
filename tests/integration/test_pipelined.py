"""Integration tests: pipelined multi-switch replacement end to end.

The ISSUE-5 acceptance surface: a triple-protocol switch chain where
each next ``changeABcast`` is issued before the previous window closes
runs clean (identical chains everywhere, no violations, overlapping
windows with convergence metrics), reports are byte-identical across
``--jobs`` fan-outs and trace depths, and a crash inside a pipelined
chain recovers via ``on_restart`` resuming the pending chain.
"""

import pytest

from repro.scenarios import Campaign, get_scenario, run_campaign, run_scenario


@pytest.fixture(scope="module")
def triple_switch():
    """``pipelined-triple-switch`` at seed 0, run once for the tests that
    only read its result."""
    return run_scenario(get_scenario("pipelined-triple-switch"), seed=0)


class TestPipelinedTripleSwitch:
    def test_runs_clean_with_overlapping_windows(self, triple_switch):
        result = triple_switch
        assert result.ok, result.violations
        assert result.violations["chain agreement"] == []
        assert result.violations["uniform agreement"] == []
        assert result.violations["uniform total order"] == []
        # Three chained versions, every stack completed every one.
        assert [w["version"] for w in result.switch_windows] == [1, 2, 3]
        assert all(w["stacks_completed"] == 5 for w in result.switch_windows)
        # Pipelined: each later window opened before the previous closed.
        overlaps = [w["overlap_with_previous"] for w in result.switch_windows[1:]]
        assert all(o > 0.0 for o in overlaps)
        assert result.switch_chain["pipelined"] is True

    def test_chain_convergence_metrics(self, triple_switch):
        chain = triple_switch.switch_chain
        assert chain["versions"] == [1, 2, 3]
        assert chain["converged_at"] is not None
        assert chain["convergence_time"] > 0.0
        assert chain["chain_started_at"] < chain["converged_at"]

    def test_every_stack_traverses_the_identical_chain(self, triple_switch):
        result = triple_switch
        trajectories = result.switch_chain["trajectories"]
        assert len(trajectories) == 5
        reference = trajectories["0"]
        assert [prot for _v, prot in reference] == [
            "abcast-ct", "abcast-seq", "abcast-token", "abcast-ct"
        ]
        assert all(traj == reference for traj in trajectories.values())
        assert set(result.final_protocols.values()) == {"abcast-ct"}

    def test_deep_overlap_variant_is_clean_and_staler(self):
        """phase="started" chaining: requests issued inside the previous
        unbind→bind gap still serialise through the version chain."""
        result = run_scenario(get_scenario("pipelined-deep-overlap"), seed=0)
        assert result.ok, result.violations
        overlaps = [w["overlap_with_previous"] for w in result.switch_windows[1:]]
        assert all(o > 0.0 for o in overlaps)
        assert result.switch_chain["stale_discards"]  # reissues went stale

    def test_multi_version_staleness_under_partition(self):
        """The healed minority replays the chain and goes ≥2 versions
        stale on the way — the classification the report exposes."""
        result = run_scenario(get_scenario("pipelined-under-partition"), seed=0)
        assert result.ok, result.violations
        stale = result.switch_chain["stale_discards"]
        assert stale.get("gap=2", 0) > 0


class TestPipelinedDeterminism:
    def test_reports_byte_identical_across_jobs_and_trace_modes(self):
        campaign = Campaign(
            name="pipelined-determinism",
            scenarios=(
                get_scenario("pipelined-triple-switch"),
                get_scenario("oneway-partition-switch"),
            ),
        )
        seeds = (0,)
        serial = run_campaign(campaign, seeds=seeds, jobs=1)
        parallel = run_campaign(campaign, seeds=seeds, jobs=2)
        full = run_campaign(campaign, seeds=seeds, jobs=1, trace="full")
        assert serial.to_json() == parallel.to_json()
        assert serial.to_json() == full.to_json()
        assert serial.ok


class TestPipelinedRecovery:
    def test_crash_during_pipelined_switch_recovers_via_chain_resume(self):
        """m3 crashes 20 ms into the chain and recovers mid-flight: its
        on_restart resumes the pending chain, the GM re-join narrows its
        exemption back, and it converges on the full chain."""
        result = run_scenario(get_scenario("pipelined-crash-recover-chain"), seed=0)
        assert result.ok, result.violations
        assert result.crashed == {3: 2.52}
        assert 3 in result.rejoined
        trajectories = result.switch_chain["trajectories"]
        protocols = lambda sid: [p for _v, p in trajectories[sid]]  # noqa: E731
        reference = protocols("0")
        assert reference == ["abcast-ct", "abcast-seq", "abcast-ct"]
        # The recovered stack traversed the same chain (possibly the
        # same — never a reordered or diverging one).
        recovered = protocols("3")
        assert recovered == reference
        assert result.violations["chain agreement"] == []
        assert result.violations["recovery liveness"] == []


class TestOneWayPartitionScenario:
    def test_oneway_partition_switch_converges_after_heal(self):
        result = run_scenario(get_scenario("oneway-partition-switch"), seed=0)
        assert result.ok, result.violations
        # Nobody crashed; every stack (including the muted side) must
        # finish the switch and deliver everything.
        assert result.crashed == {}
        assert result.ordered_common == result.sent_total
        assert [f["kind"] for f in result.faults] == ["partition-oneway", "heal"]
        assert set(result.final_protocols.values()) == {"abcast-ct"}
