"""Integration tests: the experiment harnesses themselves (reduced scale).

The benchmarks regenerate the figures at full scale; these tests keep the
harness code itself correct and fast to check (n small, short runs).
"""

from dataclasses import replace

import pytest

import repro.scenarios.engine as engine
from repro.errors import PropertyViolation
from repro.experiments import (
    build_group_comm_system,
    run_comparison,
    run_concurrent_change_ablation,
    run_creation_cost_ablation,
    run_figure5,
    run_one_config,
)
from repro.experiments import ablation, comparison, figure5, figure6
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import ms


SMALL = replace(PAPER_SPEC, n=3, load_msgs_per_sec=40.0)
SMALL_SEED = 71


class TestFigure5Harness:
    def test_produces_series_window_and_phases(self):
        res = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        assert len(res.points) > 100
        assert res.replacement_window is not None
        assert res.replacement_window.duration > 0
        assert res.pre_mean is not None and res.pre_mean > 0
        assert res.during_mean is not None
        assert res.post_mean is not None

    def test_post_returns_to_pre_level(self):
        """The paper's 'quickly stabilizes' claim at harness level."""
        res = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        assert res.post_mean == pytest.approx(res.pre_mean, rel=0.5)

    def test_render_contains_measurements(self):
        res = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        text = res.render()
        assert "Figure 5" in text
        assert "replacement" in text

    def test_series_in_ms(self):
        res = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        (t0, ms0) = res.series_ms()[0]
        (t0b, s0) = res.points[0]
        assert ms0 == pytest.approx(s0 * 1e3)


class TestFigure6Harness:
    @pytest.mark.parametrize(
        "configuration",
        ["normal_without_layer", "normal_with_layer", "during_replacement"],
    )
    def test_each_configuration_measures(self, configuration):
        point = run_one_config(
            n=3, configuration=configuration, load=40.0, duration=4.0, seed=72
        )
        assert point.mean_latency is not None
        assert point.mean_latency > 0

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_one_config(n=3, configuration="bogus", load=40.0)


class TestComparisonHarness:
    def test_rows_for_all_solutions(self):
        res = run_comparison(n=3, load=40.0, duration=6.0, seed=73)
        assert {r.solution for r in res.rows} == {
            "algorithm1",
            "maestro",
            "graceful",
        }
        ours = res.row("algorithm1")
        maestro = res.row("maestro")
        # The paper's headline comparison claim, measured:
        assert ours.app_blocked_total == 0.0
        assert maestro.app_blocked_total > 0.0
        assert "app blocked" in res.render()


class TestAblationHarnesses:
    def test_concurrent_change_variants(self):
        outcomes = run_concurrent_change_ablation(
            n=3, seed=74, duration=5.0, variants=("guarded+drop", "guarded+reissue")
        )
        assert all(o.correct for o in outcomes)
        drop, reissue = outcomes
        assert drop.variant == "guarded+drop"

    def test_creation_cost_monotone_blocking(self):
        points = run_creation_cost_ablation(
            costs=(0.0, ms(50.0)), n=3, load=40.0, duration=5.0, seed=75
        )
        assert points[0].blocked_time_total <= points[1].blocked_time_total
        assert points[1].blocked_time_total > 0


class HandRolledRun:
    """The reference run loop the harnesses replaced: build at the
    builder's default trace depth, request each switch through the
    manager at its instant, run to the end of the load, drain with the
    defaults."""

    def __init__(self, spec, seed=0, *, with_repl_layer=True, baseline=None):
        self.duration = spec.duration
        self.gcs = build_group_comm_system(
            spec, seed, with_repl_layer=with_repl_layer, baseline=baseline
        )
        for step in spec.switches:
            self.gcs.manager.request_change(step.protocol, from_stack=step.from_stack, at=step.at)


def hand_rolled_drive(run):
    run.gcs.run(until=run.duration)
    run.gcs.run_to_quiescence()
    return run.gcs


@pytest.fixture
def hand_rolled(monkeypatch):
    """Switch every harness back to the hand-rolled loop (same
    measurement code, no scenario run, no property checkers)."""

    def apply():
        for module in (figure5, figure6, comparison, ablation):
            monkeypatch.setattr(module, "experiment_run", HandRolledRun)
            monkeypatch.setattr(module, "run_checked", hand_rolled_drive)

    return apply


class TestNumbersMatchHandRolledLoop:
    """Every number a harness reports equals the hand-rolled loop's."""

    def test_figure5(self, hand_rolled):
        checked = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        hand_rolled()
        reference = run_figure5(SMALL, SMALL_SEED, duration=6.0)
        assert checked.points == reference.points
        assert checked.replacement_window == reference.replacement_window

    def test_figure6_each_configuration(self, hand_rolled):
        def points():
            return [
                run_one_config(n=3, configuration=c, load=40.0, duration=4.0, seed=72)
                for c in figure6.CONFIGURATIONS
            ]

        checked = points()
        hand_rolled()
        assert [p.mean_latency for p in checked] == [p.mean_latency for p in points()]

    def test_comparison_rows(self, hand_rolled):
        checked = run_comparison(n=3, load=40.0, duration=6.0, seed=73)
        hand_rolled()
        assert checked.rows == run_comparison(n=3, load=40.0, duration=6.0, seed=73).rows

    def test_creation_cost_points(self, hand_rolled):
        def points():
            return run_creation_cost_ablation(
                costs=(0.0, ms(50.0)), n=3, load=40.0, duration=5.0, seed=75
            )

        checked = points()
        hand_rolled()
        assert checked == points()


class TestPropertyCheckingHasTeeth:
    """A violation any checker reports reaches the harness's caller."""

    @pytest.fixture(autouse=True)
    def planted_violation(self, monkeypatch):
        monkeypatch.setattr(
            engine, "check_weak_stack_well_formedness", lambda trace: ["planted"]
        )

    def test_figure5_raises(self):
        with pytest.raises(PropertyViolation, match="planted"):
            run_figure5(SMALL, SMALL_SEED, duration=2.0)

    @pytest.mark.parametrize("configuration", figure6.CONFIGURATIONS)
    def test_figure6_raises(self, configuration):
        with pytest.raises(PropertyViolation, match=f"figure6-{configuration}"):
            run_one_config(n=3, configuration=configuration, load=40.0, duration=2.0)

    @pytest.mark.parametrize("solution", comparison.SOLUTIONS)
    def test_comparison_raises(self, solution):
        with pytest.raises(PropertyViolation, match="planted"):
            run_comparison(n=3, load=40.0, duration=2.0, solutions=(solution,))

    def test_creation_cost_raises(self):
        with pytest.raises(PropertyViolation, match="planted"):
            run_creation_cost_ablation(costs=(0.0,), n=3, load=40.0, duration=2.0)

    def test_concurrent_change_records_it(self):
        (outcome,) = run_concurrent_change_ablation(
            n=3, duration=2.0, variants=("guarded+drop",)
        )
        assert outcome.correct is False
        assert outcome.property_violations["weak stack-well-formedness"] == 1
