"""Delta-debugging shrinker for violating scenario specs.

A fuzzer finding is only useful once it is *small*: a 5-machine schedule
with six fault actions and a four-link switch chain says "something is
wrong somewhere"; the same violation on 3 machines with one partition
and one chained switch names the mechanism.  :func:`shrink_spec`
minimises a violating spec along three axes, to a fixpoint:

1. **fault actions** — classic ddmin (Zeller & Hildebrandt) over the
   ``faults`` tuple;
2. **chain entries** — ddmin over the ``switches`` tuple;
3. **member count** — try each smaller ``n`` (smallest first), skipping
   candidates whose schedule references machines that would no longer
   exist.

The predicate is "``run_scenario`` still reports a violation"; candidate
specs that fail to *run* (invalid schedule, simulation error) count as
not-reproducing, so shrinking never trades a property violation for a
crash.  Everything is deterministic: same input spec + same predicate ⇒
same minimal spec, and a spec that does not violate passes through
untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Sequence, TypeVar

from ..errors import ReproError
from ..scenarios.spec import (
    Churn,
    Crash,
    ImpairLink,
    Partition,
    PartitionOneWay,
    RandomCrashes,
    Recover,
    ScenarioSpec,
)

__all__ = [
    "ddmin",
    "shrink_spec",
    "violation_predicate",
    "guard_sensitivity_predicate",
]

T = TypeVar("T")


# --------------------------------------------------------------------------- #
# Classic ddmin over a sequence
# --------------------------------------------------------------------------- #
def ddmin(items: Sequence[T], test: Callable[[List[T]], bool]) -> List[T]:
    """Minimise *items* such that ``test`` still holds (1-minimal result).

    ``test(candidate)`` returns True when the candidate still exhibits
    the failure.  The result is 1-minimal: removing any single element
    makes ``test`` fail.  Deterministic for a deterministic ``test``.
    """
    items = list(items)
    if not items or test([]):
        return []
    granularity = 2
    while len(items) >= 2:
        chunk = (len(items) + granularity - 1) // granularity
        chunks = [items[i : i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        # Reduce to subset: some chunk alone still fails.
        for piece in chunks:
            if len(piece) < len(items) and test(list(piece)):
                items = list(piece)
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        # Reduce to complement: dropping some chunk still fails.
        for i in range(len(chunks)):
            candidate = [x for j, c in enumerate(chunks) for x in c if j != i]
            if len(candidate) < len(items) and test(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(items):
            break  # singleton granularity and nothing removable: 1-minimal
        granularity = min(len(items), granularity * 2)
    return items


# --------------------------------------------------------------------------- #
# Spec-level shrinking
# --------------------------------------------------------------------------- #
def _max_machine_ref(spec: ScenarioSpec) -> int:
    """The highest machine rank the schedule mentions (-1 if none)."""
    refs = set(spec.expected_faulty)
    for action in spec.faults:
        if isinstance(action, (Crash, Recover)):
            refs.add(action.machine)
        elif isinstance(action, Partition):
            for group in action.groups:
                refs.update(group)
        elif isinstance(action, PartitionOneWay):
            refs.update(action.src)
            refs.update(action.dst)
        elif isinstance(action, ImpairLink):
            refs.update((action.src, action.dst))
        elif isinstance(action, Churn):
            refs.update(action.machines)
        elif isinstance(action, RandomCrashes) and action.candidates is not None:
            refs.update(action.candidates)
    for step in spec.switches:
        for attr in ("from_stack", "on_stack"):
            value = getattr(step, attr, None)
            if value is not None:
                refs.add(value)
    return max(refs) if refs else -1


def violation_predicate(
    seed: int = 0, trace: str = "structural"
) -> Callable[[ScenarioSpec], bool]:
    """A shrink predicate: "this spec still violates some property".

    Candidate specs that cannot even run (schedule validation or
    simulation errors) return False — a shrink step must preserve the
    *violation*, not merely some failure.  Runs are deterministic and
    specs frozen, so each distinct spec runs once: the predicate
    remembers every verdict it gave (ddmin and the fixpoint loop revisit
    the same candidates, and a guard-sensitivity check asks twice).
    """
    from ..scenarios.engine import run_scenario  # late: avoid import cycle

    verdicts: Dict[ScenarioSpec, bool] = {}

    def predicate(spec: ScenarioSpec) -> bool:
        verdict = verdicts.get(spec)
        if verdict is None:
            try:
                verdict = not run_scenario(spec, seed=seed, trace=trace).ok
            except ReproError:
                verdict = False
            verdicts[spec] = verdict
        return verdict

    return predicate


def guard_sensitivity_predicate(
    predicate: Callable[[ScenarioSpec], bool],
) -> Callable[[ScenarioSpec], bool]:
    """Wrap *predicate* to preserve **guard sensitivity** while shrinking.

    Shrinking with a bare "still violates" predicate can wander into a
    *different* failure class: dropping the ``Heal`` of a partitioned
    schedule, say, leaves a permanently split group whose uniform-
    agreement violation has nothing to do with the sn guard (it fires
    guarded or not).  For an unguarded finding whose interest is exactly
    "the guard would have prevented this", the wrapped predicate demands
    both that the candidate still violates *and* that its guarded twin
    (``guard_change_sn=True``) is clean — so every ddmin step keeps the
    reproducer inside the guard-sensitive anomaly class.
    """

    def wrapped(spec: ScenarioSpec) -> bool:
        if spec.guard_change_sn:
            return False  # sensitivity is only defined for unguarded specs
        if not predicate(spec):
            return False
        return not predicate(replace(spec, guard_change_sn=True))

    return wrapped


def shrink_spec(
    spec: ScenarioSpec, predicate: Callable[[ScenarioSpec], bool]
) -> ScenarioSpec:
    """The minimal spec (faults, switches, then n; to a fixpoint) for
    which *predicate* still holds.  A non-violating *spec* (predicate
    already False) is returned unchanged — shrinking is only defined
    relative to a reproducing failure.
    """
    if not predicate(spec):
        return spec
    changed = True
    while changed:
        changed = False
        kept_faults = ddmin(
            spec.faults, lambda fs: predicate(replace(spec, faults=tuple(fs)))
        )
        if len(kept_faults) < len(spec.faults):
            spec = replace(spec, faults=tuple(kept_faults))
            changed = True
        kept_switches = ddmin(
            spec.switches, lambda ss: predicate(replace(spec, switches=tuple(ss)))
        )
        if len(kept_switches) < len(spec.switches):
            spec = replace(spec, switches=tuple(kept_switches))
            changed = True
        floor = max(1, _max_machine_ref(spec) + 1)
        for smaller in range(floor, spec.n):
            candidate = replace(spec, n=smaller)
            if predicate(candidate):
                spec = candidate
                changed = True
                break
    return spec
