"""A spec the engine cannot run is refused when it is made.

A zero or negative drain step never advances the backend clock, so the
drain would loop forever; a zero load rate has no send period; a
negative or NaN drain budget skips the drain silently; a negative,
infinite or NaN creation cost runs a switch with no meaningful delay;
a corruption rate outside [0, 1) garbles every datagram or none.  Each
raises a named :class:`~repro.errors.ScenarioError` at construction, so
deserialised specs (the CLI's ``--spec``, fuzz reproducers) get the
check too, and the drain itself refuses a step that never advances.
"""

import math

import pytest

from repro.errors import ScenarioError
from repro.experiments import build_group_comm_system
from repro.scenarios import ScenarioSpec, spec_from_dict, spec_to_dict


class TestASpecTheEngineCannotRunIsRefused:
    @pytest.mark.parametrize("step", [0.0, -0.5, math.nan])
    def test_quiescence_step(self, step):
        with pytest.raises(ScenarioError, match="quiescence_step must be > 0"):
            ScenarioSpec(name="bad-step", quiescence_step=step)

    @pytest.mark.parametrize("rate", [0.0, -10.0, math.nan])
    def test_load_rate(self, rate):
        with pytest.raises(ScenarioError, match="load_msgs_per_sec must be > 0"):
            ScenarioSpec(name="bad-rate", load_msgs_per_sec=rate)

    @pytest.mark.parametrize("extra", [-1.0, math.inf, math.nan])
    def test_quiescence_extra(self, extra):
        with pytest.raises(ScenarioError, match=r"quiescence_extra must be finite and >= 0"):
            ScenarioSpec(name="bad-extra", quiescence_extra=extra)

    @pytest.mark.parametrize("cost", [-0.01, math.inf, math.nan])
    def test_creation_cost(self, cost):
        with pytest.raises(ScenarioError, match=r"creation_cost must be finite and >= 0"):
            ScenarioSpec(name="bad-cost", creation_cost=cost)

    @pytest.mark.parametrize("rate", [-0.5, 1.0, 1.5, math.nan])
    def test_corrupt_rate(self, rate):
        with pytest.raises(ScenarioError, match=r"corrupt_rate must be in \[0, 1\)"):
            ScenarioSpec(name="bad-corruption", corrupt_rate=rate)

    def test_the_edges_are_accepted(self):
        spec = ScenarioSpec(
            name="edges", quiescence_extra=0.0, creation_cost=0.0, corrupt_rate=0.999
        )
        assert (spec.quiescence_extra, spec.creation_cost, spec.corrupt_rate) == (0.0, 0.0, 0.999)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quiescence_step", 0.0),
            ("load_msgs_per_sec", 0.0),
            ("quiescence_extra", -1.0),
            ("creation_cost", -0.01),
            ("corrupt_rate", 1.5),
        ],
    )
    def test_a_deserialised_spec_is_checked_too(self, field, value):
        data = spec_to_dict(ScenarioSpec(name="from-json"))
        data[field] = value
        with pytest.raises(ScenarioError, match=field):
            spec_from_dict(data)

    @pytest.mark.parametrize("step", [0.0, -0.5, math.nan])
    def test_the_drain_refuses_a_step_that_never_advances(self, step):
        gcs = build_group_comm_system(ScenarioSpec(name="drain", n=2, duration=0.2))
        # Refused before the first poll: with no budget a drain that
        # took the step would return at once instead of looping forever.
        with pytest.raises(ValueError, match="step must be > 0"):
            gcs.run_to_quiescence(extra=0.0, step=step)
        assert gcs.backend.sim.now == 0.0
