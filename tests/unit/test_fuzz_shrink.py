"""Unit tests for the ddmin shrinker (synthetic predicates: no simulator).

The shrinker's contract is checked against cheap synthetic predicates so
minimality, determinism and the no-violation passthrough are pinned
without paying for scenario runs; the integration suite exercises the
same code over real violating schedules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.errors import ScenarioError
from repro.fuzz.shrink import (
    ddmin,
    guard_sensitivity_predicate,
    shrink_spec,
    violation_predicate,
)
from repro.scenarios.spec import Crash, Heal, Partition, ScenarioSpec
from repro.scenarios.switchplan import SwitchAfterSwitch, SwitchAt


# --------------------------------------------------------------------------- #
# ddmin over plain sequences
# --------------------------------------------------------------------------- #
class TestDdmin:
    def test_finds_exact_failure_inducing_subset(self):
        needed = {2, 5, 7}
        result = ddmin(list(range(10)), lambda c: needed <= set(c))
        assert result == [2, 5, 7]  # minimal AND order-preserving

    def test_result_is_one_minimal(self):
        needed = {1, 3, 4, 8}
        test = lambda c: needed <= set(c)  # noqa: E731
        result = ddmin(list(range(10)), test)
        assert test(result)
        for i in range(len(result)):
            assert not test(result[:i] + result[i + 1 :])

    def test_deterministic(self):
        items = list(range(20))
        test = lambda c: {0, 9, 13, 19} <= set(c)  # noqa: E731
        assert ddmin(items, test) == ddmin(items, test)

    def test_empty_passing_candidate_wins(self):
        # The failure needs nothing: the minimum is the empty sequence.
        assert ddmin([1, 2, 3], lambda c: True) == []

    def test_irreducible_input_survives_whole(self):
        items = [1, 2, 3, 4, 5]
        result = ddmin(items, lambda c: len(c) == len(items))
        assert result == items

    def test_single_element(self):
        assert ddmin([7], lambda c: 7 in c) == [7]
        assert ddmin([], lambda c: True) == []

    def test_counts_predicate_calls_are_bounded(self):
        calls = []

        def test(candidate):
            calls.append(1)
            return {4} <= set(candidate)

        ddmin(list(range(32)), test)
        assert len(calls) < 200  # ddmin is polynomial, not exhaustive


# --------------------------------------------------------------------------- #
# Spec-level shrinking
# --------------------------------------------------------------------------- #
def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="shrink-me",
        n=5,
        guard_change_sn=False,
        faults=(
            Crash(at=1.0, machine=1),
            Partition(at=2.0, groups=((0,), (1, 2, 3, 4))),
            Heal(at=3.0),
            Crash(at=4.0, machine=2),
        ),
        switches=(
            SwitchAt(protocol="abcast-ct", at=2.1, from_stack=3),
            SwitchAfterSwitch(protocol="abcast-ct", version=1, from_stack=0),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestShrinkSpec:
    def test_no_violation_passthrough(self):
        spec = _spec()
        assert shrink_spec(spec, lambda s: False) is spec

    def test_shrinks_faults_and_switches_to_predicate_core(self):
        # Synthetic "violation": needs the partition, its heal, and the
        # chained switch — everything else must be shrunk away.
        def predicate(s: ScenarioSpec) -> bool:
            kinds = [type(a) for a in s.faults]
            return (
                Partition in kinds
                and Heal in kinds
                and any(isinstance(x, SwitchAfterSwitch) for x in s.switches)
            )

        shrunk = shrink_spec(_spec(), predicate)
        assert [type(a) for a in shrunk.faults] == [Partition, Heal]
        assert [type(s) for s in shrunk.switches] == [SwitchAfterSwitch]

    def test_shrinks_member_count_to_reference_floor(self):
        # Predicate is size-indifferent; the only n bound is the highest
        # machine the surviving schedule references.
        def predicate(s: ScenarioSpec) -> bool:
            return any(isinstance(a, Crash) and a.machine == 1 for a in s.faults)

        shrunk = shrink_spec(_spec(), predicate)
        assert [type(a) for a in shrunk.faults] == [Crash]
        assert shrunk.switches == ()
        assert shrunk.n == 2  # machine 1 referenced => n can drop to 2, not 1

    def test_never_produces_invalid_specs(self):
        seen = []

        def predicate(s: ScenarioSpec) -> bool:
            # Every candidate the shrinker builds must be constructible
            # (frozen dataclass validation) and internally consistent.
            seen.append(s)
            return any(isinstance(a, Partition) for a in s.faults)

        shrink_spec(_spec(), predicate)
        for candidate in seen:
            assert candidate.n >= 1

    def test_deterministic(self):
        def predicate(s: ScenarioSpec) -> bool:
            return any(isinstance(a, Heal) for a in s.faults)

        assert shrink_spec(_spec(), predicate) == shrink_spec(_spec(), predicate)

    def test_fixpoint_interleaves_axes(self):
        # The n axis is gated on the fault/switch axes: only once every
        # machine-referencing action is gone can n bottom out.
        def predicate(s: ScenarioSpec) -> bool:
            return any(isinstance(a, Heal) for a in s.faults)

        shrunk = shrink_spec(_spec(), predicate)
        assert shrunk.faults == (Heal(at=3.0),)
        assert shrunk.switches == ()
        # Heal references no machine at all: n bottoms out at 1.
        assert shrunk.n == 1


class TestGuardSensitivityPredicate:
    def test_requires_unguarded_spec(self):
        wrapped = guard_sensitivity_predicate(lambda s: True)
        assert not wrapped(_spec(guard_change_sn=True))

    def test_requires_violation_and_clean_guarded_twin(self):
        # Violates whenever a Partition survives; guard-sensitive only
        # when the Heal also survives (modelling "unhealed partitions
        # violate guarded too").
        def predicate(s: ScenarioSpec) -> bool:
            has_partition = any(isinstance(a, Partition) for a in s.faults)
            has_heal = any(isinstance(a, Heal) for a in s.faults)
            if s.guard_change_sn:
                return has_partition and not has_heal
            return has_partition

        wrapped = guard_sensitivity_predicate(predicate)
        spec = _spec()
        assert wrapped(spec)  # partition + heal: violates, guarded twin clean
        no_heal = replace(
            spec, faults=tuple(a for a in spec.faults if not isinstance(a, Heal))
        )
        assert predicate(no_heal)  # still a violation...
        assert not wrapped(no_heal)  # ...but no longer guard-sensitive
        shrunk = shrink_spec(spec, wrapped)
        kinds = [type(a) for a in shrunk.faults]
        assert Partition in kinds and Heal in kinds  # Heal survives shrinking


class TestViolationPredicate:
    def test_each_distinct_spec_runs_once(self, monkeypatch):
        """Replay-confirm, the guard-sensitivity twin and every ddmin
        candidate share one verdict per spec: no spec runs twice, and a
        spec that fails to run is remembered as not violating."""
        import repro.scenarios.engine as engine

        runs = Counter()

        def fake_run_scenario(spec, seed, trace):
            runs[spec] += 1
            if spec.n == 1:
                raise ScenarioError("too small to run")
            heals = any(isinstance(a, Heal) for a in spec.faults)
            return SimpleNamespace(ok=spec.guard_change_sn or not heals)

        monkeypatch.setattr(engine, "run_scenario", fake_run_scenario)
        predicate = violation_predicate()
        spec = _spec()
        assert predicate(spec)  # the replay-confirm
        assert not predicate(replace(spec, guard_change_sn=True))
        shrunk = shrink_spec(spec, guard_sensitivity_predicate(predicate))
        assert shrunk.faults == (Heal(at=3.0),) and shrunk.n == 2
        assert runs[replace(shrunk, n=1)] == 1
        assert sorted(set(runs.values())) == [1], runs.most_common(3)


def test_scenario_error_on_bad_budget():
    from repro.fuzz.generator import FuzzConfig

    with pytest.raises(ScenarioError):
        FuzzConfig(budget=0)
