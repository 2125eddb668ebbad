"""The warm worker pool behind ``run_campaign(jobs=N)`` / ``run_fuzz(jobs=N)``.

:class:`WarmPool` is one stdlib :class:`~concurrent.futures.ProcessPoolExecutor`
kept for the life of the parent process (:func:`get_pool`), so workers pay
their cold start once, not once per campaign.  bench-e2e's
``campaign-pool`` workload measures it end to end (``parallel.speedup``,
``parallel.overhead_ms_per_cell``).

* **warm workers** — under the fork start method (where the platform has
  it) workers inherit the parent's imports and are warm from birth; they
  are reused across cells *and* across campaigns.  Each worker freezes
  what it inherited and runs a cell with the cyclic GC disabled,
  collecting once per cell (a cell's simulator is an isolated object
  graph dropped whole at cell end) — the Instagram ``gc.freeze`` recipe;
* **compact fragments, deterministic merge** — each cell is one task and
  returns its pre-serialised sorted-key JSON fragment, not a pickled
  result object; the parent merges fragments **by cell index**, so the
  report is byte-identical for any ``jobs`` (pinned by
  ``tests/integration/test_warm_pool.py``).

Failure contract: a cell that raises fails the campaign with a
:class:`~repro.errors.ScenarioError` whose first line names its
``(spec, seed)``.  Every cell of the campaign still runs, so the pool
stays reusable and, with several failing cells, the error is always the
one of the **lowest cell index**.

The executor watches each worker's process sentinel, so a worker that
*dies* (killed, OOM) fails every unfinished task with
:class:`~concurrent.futures.process.BrokenProcessPool` instead of hanging.
A broken pool is restarted at the next submit, and the unfinished cells
rerun one at a time, so the error names the cell that kills a fresh
worker.

Everything here is wall-clock-free (R2 determinism: timing the pool is
the benchmarks' job, not the pool's).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import ScenarioError
from .scenarios.engine import run_scenario

__all__ = ["WarmPool", "get_pool", "shutdown_pool"]

#: One campaign cell: ``(spec, seed, trace)`` exactly as the engine builds it.
Cell = Tuple[Any, int, str]

#: A finished cell: ``(True, fragment)`` or ``(False, error text)``.
Outcome = Tuple[bool, str]


def _freeze_imports() -> None:
    """Worker initializer: move everything imported so far out of the
    collected generations (and out of copy-on-write refcount churn)."""
    gc.collect()
    gc.freeze()


def _run_cell(cell: Cell) -> Outcome:
    """Run one cell in a worker and serialise its result."""
    spec, seed, trace = cell
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        result = run_scenario(spec, seed=seed, trace=trace)
        return True, json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    except Exception:
        return False, (
            f"scenario {spec.name!r} seed {seed} raised in a pool worker:\n"
            f"{traceback.format_exc()}[worker {multiprocessing.current_process().name}]"
        )
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()


class WarmPool:
    """A persistent pool of *jobs* warm ``repro`` workers (see module docstring)."""

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ScenarioError(f"warm pool needs jobs >= 1, got {jobs}")
        #: Number of workers (0 once shut down).
        self.size = jobs
        self._executor = self._start()

    def _start(self) -> ProcessPoolExecutor:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        return ProcessPoolExecutor(
            self.size, mp_context=multiprocessing.get_context(method),
            initializer=_freeze_imports,
        )

    def _submit(self, fn: Callable[[Any], Any], args: Iterable[Any]) -> List[Future]:
        """Submit ``fn(arg)`` per *arg*, restarting a pool that broke while idle."""
        try:
            return [self._executor.submit(fn, arg) for arg in args]
        except BrokenProcessPool:
            self._executor.shutdown()
            self._executor = self._start()
            return [self._executor.submit(fn, arg) for arg in args]

    def warm(self) -> None:
        """Start the workers and round-trip one no-op per worker."""
        for future in self._submit(int, range(self.size)):
            future.result()

    def shutdown(self) -> None:
        """Stop every worker (idempotent; the pool is unusable after)."""
        self._executor.shutdown()
        self.size = 0

    def run_cells(self, cells: Sequence[Cell]) -> List[str]:
        """Run every cell; return one compact JSON fragment per cell, in
        cell order whichever worker ran which cell."""
        # No future is ever cancelled: on Python 3.11 an executor that
        # breaks while a cancelled future is still queued loses its manager
        # thread, and every waiter hangs.  So every cell runs to the end.
        outcomes: List[Optional[Outcome]] = []
        for future in self._submit(_run_cell, cells):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append(None)
        fragments: List[str] = []
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                # A dead worker failed every unfinished cell.  Rerun each
                # alone on a fresh pool: the cell that kills a worker again
                # is the culprit.
                try:
                    outcome = self._submit(_run_cell, [cells[i]])[0].result()
                except BrokenProcessPool as exc:
                    spec, seed, _trace = cells[i]
                    raise ScenarioError(
                        f"a pool worker died while running scenario {spec.name!r} "
                        f"seed {seed} (cell {i})\n[{exc}]"
                    ) from None
            if not outcome[0]:
                raise ScenarioError(outcome[1])
            fragments.append(outcome[1])
        return fragments


_POOL: Optional[WarmPool] = None


def get_pool(jobs: int) -> WarmPool:
    """The process-wide :class:`WarmPool`, at exactly *jobs* workers.

    One pool per parent process, reused across ``run_campaign`` /
    ``run_fuzz`` invocations (workers stay warm between campaigns).  A
    call with a different *jobs* replaces it with a pool of that width.
    """
    global _POOL
    if _POOL is not None and _POOL.size != jobs:
        shutdown_pool()
    if _POOL is None:
        _POOL = WarmPool(jobs)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (no-op when none exists)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
