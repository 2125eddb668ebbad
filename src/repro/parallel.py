"""The warm worker pool behind ``run_campaign(jobs=N)`` / ``run_fuzz(jobs=N)``.

The old executor paid worker cold-start per campaign: every
``ProcessPoolExecutor`` context spawned fresh interpreters that re-imported
``repro`` (and numpy) before running a single cell, and every
``(spec, seed)`` cell was one pickle round-trip.  On the smoke matrix that
overhead exceeded the simulation time itself, so ``--jobs`` *lost* to
serial.  bench-e2e's ``campaign-pool`` workload measures this pool end to
end (``parallel.speedup``, ``parallel.overhead_ms_per_cell``).

:class:`WarmPool` fixes all three costs:

* **warm workers** — processes are spawned once per parent process (see
  :func:`get_pool`), import :mod:`repro.scenarios.engine` once, and are
  reused across cells *and* across ``run_campaign`` / ``run_fuzz``
  invocations; the fork start method (the Linux default) makes even the
  first generation warm from birth, since children inherit the parent's
  already-imported modules;
* **chunked scheduling** — cells ship in chunks sized by
  :func:`cells_per_chunk` (enough chunks for ~4 rounds of work stealing
  per worker), so the per-message IPC cost amortises over many cells
  while the tail stays balanced; the chunk size is internal, not an
  option;
* **compact fragments, deterministic merge** — workers reply with
  pre-serialised sorted-key JSON fragments (one per cell) instead of
  pickled result objects, and the parent merges fragments **by chunk
  index**, so the reassembled report is byte-identical for any
  ``jobs`` (pinned by ``tests/integration/test_warm_pool.py``).

Failure contract: a cell that raises in a worker fails the campaign with
a :class:`~repro.errors.ScenarioError` whose first line names the
poisoned ``(spec, seed)`` — after the other in-flight chunks were
collected, so the pool stays reusable.  When several cells are poisoned
the error is always the one of the **lowest chunk index** (i.e. the
first poisoned cell in cell order), whatever the worker scheduling;
worker name and exit code follow on later lines.  A worker that *dies*
(killed, OOM) surfaces the same way — its pipe EOF wakes the dispatcher,
so the pool never hangs — and is replaced before the error propagates.

Workers run with the cyclic garbage collector frozen/disabled during a
chunk (each cell's simulator is an isolated object graph dropped whole
at cell end, so the collector only adds pauses) and collect once per
chunk — the Instagram ``gc.freeze`` recipe.

Everything here is wall-clock-free (R2 determinism: timing the pool is
the benchmarks' job, not the pool's).
"""

from __future__ import annotations

import atexit
import gc
import json
import multiprocessing
import traceback
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import Any, List, Optional, Sequence, Tuple

from .errors import ScenarioError

__all__ = ["WarmPool", "cells_per_chunk", "get_pool", "shutdown_pool"]

#: One campaign cell: ``(spec, seed, trace)`` exactly as the engine builds it.
Cell = Tuple[Any, int, str]


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def _worker_main(conn: Connection) -> None:
    """The worker loop: receive chunks of cells, reply with JSON fragments.

    Messages in: ``("run", chunk_id, cells)``, ``("ping", token)``, or
    ``None`` (shutdown).  Messages out: ``("ok", chunk_id, fragments)``,
    ``("err", chunk_id, name, seed, traceback)``, ``("pong", token)``.
    The engine import happens once, here — the warm in ``WarmPool``.
    """
    from .scenarios.engine import run_scenario

    if hasattr(gc, "freeze"):
        # Everything imported so far is immortal for this worker: move it
        # out of the collected generations (and out of copy-on-write
        # refcount churn under fork).
        gc.collect()
        gc.freeze()
    dumps = json.dumps
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        if task is None:
            break
        tag = task[0]
        if tag == "ping":
            conn.send(("pong", task[1]))
            continue
        chunk_id, cells = task[1], task[2]
        fragments: List[str] = []
        failed: Optional[Tuple[str, int, str]] = None
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for spec, seed, trace in cells:
                try:
                    result = run_scenario(spec, seed=seed, trace=trace)
                except Exception:
                    failed = (spec.name, seed, traceback.format_exc())
                    break
                fragments.append(
                    dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
                )
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
        if failed is not None:
            conn.send(("err", chunk_id, failed[0], failed[1], failed[2]))
        else:
            conn.send(("ok", chunk_id, fragments))
    conn.close()


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
def cells_per_chunk(n_cells: int, workers: int) -> int:
    """Cells per chunk: amortises IPC while keeping the tail balanced.

    Aims for ~4 dispatch rounds per worker (so a slow cell cannot strand
    the pool behind one giant chunk), capped at 8 cells per chunk (so the
    per-chunk reply stays small) and floored at 1.
    """
    if workers < 1:
        workers = 1
    target = -(-n_cells // (workers * 4))  # ceil division
    return max(1, min(8, target))


class _Worker:
    """One pooled process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: multiprocessing.process.BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn


class WarmPool:
    """A persistent pool of warm ``repro`` workers (see module docstring).

    Parameters
    ----------
    jobs:
        Number of worker processes to keep alive.
    start_method:
        ``multiprocessing`` start method override; defaults to ``fork``
        where available (workers inherit the parent's imports — warm from
        birth) and ``spawn`` elsewhere.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ScenarioError(f"warm pool needs jobs >= 1, got {jobs}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._spawned = 0
        self._workers: List[_Worker] = []
        for _ in range(jobs):
            self._workers.append(self._spawn())

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of (supposedly) live workers."""
        return len(self._workers)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        self._spawned += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-warm-{self._spawned}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end: the worker's death
        # then surfaces as pipe EOF, which is what keeps the dispatcher
        # hang-free.
        child_conn.close()
        return _Worker(process, parent_conn)

    def _replace(self, worker: _Worker) -> _Worker:
        """Retire *worker* (dead or wedged) and spawn its successor."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        fresh = self._spawn()
        self._workers[self._workers.index(worker)] = fresh
        return fresh

    def resize(self, jobs: int) -> None:
        """Grow the pool to *jobs* workers (never shrinks a warm pool)."""
        while len(self._workers) < jobs:
            self._workers.append(self._spawn())

    def warm(self) -> None:
        """Round-trip a ping through every worker.

        The first call per worker generation pays the engine import (on
        spawn-start platforms) — callers that want warm-up accounted
        separately time this call; afterwards :meth:`run_cells` measures
        pure execution.
        """
        for token, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                worker = self._replace(worker)
            worker.conn.send(("ping", token))
        for worker in list(self._workers):
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                self._replace(worker)
                continue
            if reply[0] != "pong":  # pragma: no cover - protocol guard
                raise ScenarioError(f"warm pool: unexpected warm-up reply {reply[0]!r}")

    def shutdown(self) -> None:
        """Stop every worker (idempotent; the pool is unusable after)."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in self._workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def run_cells(
        self,
        cells: Sequence[Cell],
        max_workers: Optional[int] = None,
    ) -> List[str]:
        """Run every cell; return one compact JSON fragment per cell.

        Fragments come back **in cell order** regardless of which worker
        ran which chunk — the deterministic merge.  Chunks hold
        :func:`cells_per_chunk` cells; *max_workers* caps how many of the
        pool's workers participate (a ``jobs=2`` campaign on a pool that
        grew to 4 still runs width-2).
        """
        if not cells:
            return []
        workers = self._workers[: max_workers or len(self._workers)]
        size = cells_per_chunk(len(cells), len(workers))
        chunks = [list(cells[i : i + size]) for i in range(0, len(cells), size)]

        fragments: dict[int, List[str]] = {}
        #: chunk index -> error text of every chunk that failed.
        failures: dict[int, str] = {}
        busy: dict[Connection, Tuple[_Worker, int]] = {}
        idle: List[_Worker] = list(workers)
        next_chunk = 0

        def dispatch(worker: _Worker, chunk_id: int) -> None:
            for _ in range(2):
                if not worker.process.is_alive():
                    worker = self._replace(worker)
                try:
                    worker.conn.send(("run", chunk_id, chunks[chunk_id]))
                except OSError:
                    worker = self._replace(worker)
                    continue
                busy[worker.conn] = (worker, chunk_id)
                return
            raise ScenarioError(
                "warm pool: could not hand a chunk to a worker (workers "
                "keep dying at dispatch)"
            )

        # One loop dispatches and collects, and never discards a reply:
        # after the first failure no new chunk goes out, but every chunk
        # in flight is still collected — which leaves the pipes clean for
        # the next campaign and makes the verdict scheduling-independent.
        while True:
            while idle and next_chunk < len(chunks) and not failures:
                dispatch(idle.pop(), next_chunk)
                next_chunk += 1
            if not busy:
                break
            for conn in _connection_wait(list(busy)):
                worker, chunk_id = busy.pop(conn)  # type: ignore[index]
                try:
                    reply = conn.recv()  # type: ignore[attr-defined]
                except (EOFError, OSError):
                    spec, seed, _trace = chunks[chunk_id][0]
                    exitcode = worker.process.exitcode
                    idle.append(self._replace(worker))
                    failures[chunk_id] = (
                        f"a pool worker died while running chunk {chunk_id} "
                        f"(first cell: scenario {spec.name!r} seed {seed})\n"
                        f"[worker {worker.process.name}, exit code {exitcode}]"
                    )
                    continue
                idle.append(worker)
                if reply[0] == "ok":
                    fragments[chunk_id] = reply[2]
                elif reply[0] == "err":
                    _tag, _cid, name, seed, tb = reply
                    failures[chunk_id] = (
                        f"scenario {name!r} seed {seed} raised in a pool worker:\n"
                        f"{tb}[worker {worker.process.name}]"
                    )
                else:  # pragma: no cover - protocol guard
                    failures[chunk_id] = f"warm pool: unexpected worker reply {reply[0]!r}"

        if failures:
            # Chunks go out in index order, so when a chunk failed every
            # lower-indexed one was already in flight or done and has been
            # collected above: the lowest failed index is the same on every
            # run, whichever worker happened to reply first.
            raise ScenarioError(failures[min(failures)])
        if len(fragments) < len(chunks):
            raise ScenarioError("warm pool: no workers available")
        return [fragment for i in range(len(chunks)) for fragment in fragments[i]]


# --------------------------------------------------------------------------- #
# The process-wide pool
# --------------------------------------------------------------------------- #
_POOL: Optional[WarmPool] = None


def get_pool(jobs: int) -> WarmPool:
    """The process-wide :class:`WarmPool`, grown to at least *jobs* workers.

    One pool per parent process, reused across ``run_campaign`` /
    ``run_fuzz`` invocations (the whole point: workers stay warm between
    campaigns).  The pool grows on demand and never shrinks; callers cap
    their own width via ``run_cells(max_workers=...)``.
    """
    global _POOL
    if _POOL is None:
        _POOL = WarmPool(jobs)
        atexit.register(shutdown_pool)
    elif _POOL.size < jobs:
        _POOL.resize(jobs)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (no-op when none exists)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
