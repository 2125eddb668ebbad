"""Property tests: the warm-pool executor's determinism and failure contract.

Three contracts are pinned here:

* **byte-identity** — ``run_campaign`` / ``run_fuzz`` reports are
  byte-identical for every ``jobs`` × trace-mode combination (the merge
  is by cell index; each cell is a pure function of its arguments);
* **failure naming** — a cell that raises inside a worker fails the
  campaign with a :class:`~repro.errors.ScenarioError` naming the
  scenario and seed, never hangs the pool, and leaves the pool usable;
  with several poisoned cells the error names the *first* one in cell
  order on every run, whatever the pool width and whichever worker
  replied first;
* **worker death** — a killed worker is replaced transparently when idle
  and surfaces as an error naming the cell when it dies mid-cell.
"""

import json
import os
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScenarioError
from repro.experiments import PROTOCOL_SEQ
from repro.parallel import WarmPool, get_pool
from repro.scenarios import Campaign, Crash, ScenarioSpec, SwitchAt, run_campaign
from repro.scenarios.engine import result_from_dict, run_scenario
from repro.fuzz import FuzzConfig
from repro.fuzz.campaign import run_fuzz

SPEC_SWITCH = ScenarioSpec(
    name="pool-switch",
    n=3,
    duration=1.0,
    load_msgs_per_sec=40.0,
    switches=(SwitchAt(protocol=PROTOCOL_SEQ, at=0.6),),
    quiescence_extra=4.0,
)
SPEC_CRASH = ScenarioSpec(
    name="pool-crash",
    n=3,
    duration=1.0,
    load_msgs_per_sec=40.0,
    faults=(Crash(at=0.7, machine=2),),
    quiescence_extra=4.0,
)
CAMPAIGN = Campaign(name="pool", scenarios=(SPEC_SWITCH, SPEC_CRASH))
#: A cell cheap enough to run by the dozen (the poisoning property below).
SPEC_TINY = ScenarioSpec(
    name="pool-tiny", n=3, duration=0.2, load_msgs_per_sec=20.0, quiescence_extra=2.0
)


class _WorkerKiller:
    """A stand-in cell spec whose unpickling kills the process doing it."""

    name = "killer"

    def __reduce__(self):
        return (os._exit, (3,))


class TestByteIdentity:
    @pytest.mark.parametrize("trace", ["structural", "off"])
    def test_identity_across_jobs(self, trace):
        baseline = run_campaign(CAMPAIGN, seeds=(0, 1), jobs=1, trace=trace)
        for jobs in (2, 3, 4):
            report = run_campaign(CAMPAIGN, seeds=(0, 1), jobs=jobs, trace=trace)
            assert report.to_json() == baseline.to_json(), (
                f"report drifted at jobs={jobs} trace={trace}"
            )

    def test_fuzz_identity_across_jobs(self):
        config = FuzzConfig(budget=4)
        baseline = run_fuzz(config, jobs=1, shrink=False)
        for jobs in (2, 3):
            report = run_fuzz(config, jobs=jobs, shrink=False)
            assert report.to_json() == baseline.to_json(), (
                f"fuzz report drifted at jobs={jobs}"
            )

    def test_result_from_dict_round_trips(self):
        result = run_scenario(SPEC_SWITCH, seed=0)
        fragment = json.dumps(result.to_dict(), sort_keys=True,
                              separators=(",", ":"))
        rebuilt = result_from_dict(json.loads(fragment))
        assert rebuilt == result


@pytest.fixture(scope="module", params=[1, 2, 4], ids=lambda jobs: f"jobs{jobs}")
def sized_pool(request):
    """A private pool of each width (not the process-wide singleton),
    so the failure contract is pinned for one worker running every cell
    in turn and for cells in flight on several workers at once.
    """
    pool = WarmPool(request.param)
    yield pool
    pool.shutdown()


class TestFailureContract:
    def test_poisoned_cell_names_spec_and_seed(self):
        # run_scenario validates the trace mode inside the worker, so a
        # bogus mode is a convenient always-raising cell.
        with pytest.raises(ScenarioError) as excinfo:
            run_campaign(CAMPAIGN, seeds=(7,), jobs=2, trace="bogus")
        message = str(excinfo.value)
        assert "pool-switch" in message
        assert "seed 7" in message

    @given(poisoned=st.sets(st.integers(min_value=0, max_value=5), min_size=1))
    @settings(max_examples=6, deadline=None)
    def test_first_poisoned_cell_wins_whatever_the_scheduling(self, sized_pool, poisoned):
        # run_scenario validates the trace mode inside the worker, so a
        # bogus mode poisons exactly the chosen cells; they fail at once
        # while their healthy neighbours take tens of milliseconds, which
        # is what used to let a later poisoned cell's error arrive first.
        cells = [
            (SPEC_TINY, seed, "bogus" if seed in poisoned else "structural")
            for seed in range(6)
        ]
        expected = f"scenario 'pool-tiny' seed {min(poisoned)} raised in a pool worker:"
        with pytest.raises(ScenarioError) as excinfo:
            sized_pool.run_cells(cells)
        assert str(excinfo.value).splitlines()[0] == expected
        # Every reply was collected, so the pool is clean.
        healthy = [(SPEC_TINY, 0, "structural")] * 2
        assert len(sized_pool.run_cells(healthy)) == 2

    def test_pool_usable_after_poisoned_campaign(self):
        with pytest.raises(ScenarioError):
            run_campaign(CAMPAIGN, seeds=(0,), jobs=2, trace="bogus")
        good = run_campaign(CAMPAIGN, seeds=(0,), jobs=2)
        assert good.to_json() == run_campaign(CAMPAIGN, seeds=(0,)).to_json()

    def test_idle_worker_killed_is_replaced_transparently(self):
        pool = get_pool(2)
        pool.warm()
        victim = next(iter(pool._executor._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        # The executor's manager thread reaps the corpse, marks the pool
        # broken and exits; joining the victim here as well would race its
        # waitpid and could read a reaped process as alive.
        pool._executor._executor_manager_thread.join(timeout=10)
        assert not victim.is_alive()
        # The next campaign must notice the broken pool, restart it, and
        # still produce the byte-identical report.
        report = run_campaign(CAMPAIGN, seeds=(0,), jobs=2)
        assert report.to_json() == run_campaign(CAMPAIGN, seeds=(0,)).to_json()
        assert all(p.is_alive() for p in pool._executor._processes.values())

    def test_cell_that_kills_its_worker_is_named(self, sized_pool):
        # Unpickling the killer's spec exits the worker mid-cell.
        cells = [(SPEC_TINY, 0, "structural"), (_WorkerKiller(), 1, "structural"),
                 (SPEC_TINY, 2, "structural")]
        with pytest.raises(ScenarioError) as excinfo:
            sized_pool.run_cells(cells)
        first_line = str(excinfo.value).splitlines()[0]
        assert "'killer'" in first_line and "seed 1" in first_line
        healthy = [(SPEC_TINY, 0, "structural")] * 2
        assert len(sized_pool.run_cells(healthy)) == 2
        # A failing cell below the killer still wins, and nothing hangs
        # (the worker dies while the failure is already collected).
        cells = [(SPEC_TINY, 0, "bogus"), (_WorkerKiller(), 1, "structural")]
        cells += [(SPEC_TINY, seed, "structural") for seed in range(2, 6)]
        with pytest.raises(ScenarioError) as excinfo:
            sized_pool.run_cells(cells)
        expected = "scenario 'pool-tiny' seed 0 raised in a pool worker:"
        assert str(excinfo.value).splitlines()[0] == expected
        assert len(sized_pool.run_cells(healthy)) == 2


class TestStandalonePool:
    """WarmPool used directly (not through the process-wide singleton)."""

    def test_run_cells_merges_in_cell_order(self):
        pool = WarmPool(2)
        try:
            # Nine cells on two workers, merged back in cell order.
            cells = [(SPEC_TINY, seed, "structural") for seed in range(9)]
            fragments = pool.run_cells(cells)
            seeds = [json.loads(f)["seed"] for f in fragments]
            assert seeds == list(range(9))
        finally:
            pool.shutdown()

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="jobs"):
            WarmPool(0)

    def test_shutdown_is_idempotent(self):
        pool = WarmPool(1)
        pool.shutdown()
        pool.shutdown()
        assert pool.size == 0
