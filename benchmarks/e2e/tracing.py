"""Spans around the calls into each layer, and a profile bucketed by layer.

Nothing under ``src/`` is instrumented (the determinism lint forbids
clocks there).  Instead the traced run installs wrappers *by attribute*
on the functions the engine and the soak look up at call time, runs the
same public entry points as the untraced run, and removes the wrappers
again.  A target that no longer resolves is listed in
``Tracer.missing`` — reported as ``spans_missing``, never an error — so
a refactor shows up as a hole in the per-layer table, not as a crash.

Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import pstats
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span name, module, dotted attribute)``: where wrappers go.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.build", "repro.scenarios.engine", "build_group_comm_system"),
    ("sim.run", "repro.kernel.system", "System.run"),
    ("experiments.drain", "repro.experiments.common", "GroupCommSystem.run_to_quiescence"),
    ("dpu.check_abcast", "repro.scenarios.engine", "check_all_abcast_properties"),
    ("dpu.check_abcast", "repro.scenarios.engine", "check_corruption_containment"),
    ("dpu.check_recovery", "repro.scenarios.engine", "check_recovery_liveness"),
    ("dpu.check_trace", "repro.scenarios.engine", "check_weak_stack_well_formedness"),
    ("dpu.check_trace", "repro.scenarios.engine", "check_chain_agreement"),
    ("dpu.check_trace", "repro.scenarios.engine", "check_weak_protocol_operationability"),
    ("metrics.latency", "repro.scenarios.engine", "mean_latency"),
    ("parallel.dispatch", "repro.parallel", "WarmPool.run_cells"),
    ("parallel.merge", "repro.scenarios.engine", "result_from_dict"),
    ("runtime.start", "repro.runtime.realtime", "RealtimeBackend.start"),
    ("runtime.run", "repro.runtime.realtime", "RealtimeBackend.run"),
    ("runtime.stop", "repro.runtime.realtime", "RealtimeBackend.stop"),
    ("experiments.build", "repro.runtime.soak", "build_soak_system"),
)

#: Wrappers on these also keep what the call returned (the built system),
#: so module counters can be read after the pass.
KEEP_RESULT = {"build_group_comm_system", "build_soak_system", "WarmPool.run_cells"}

#: Profile buckets, first matching prefix of the path below ``repro/`` wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/process.py", "sim.process"),
    ("sim/random.py", "sim.random"),
    ("sim/latency.py", "sim.latency"),
    ("sim/faults.py", "sim.faults"),
    ("sim/monitors.py", "other"),
    ("sim/", "sim.engine"),
    ("kernel/module.py", "kernel.module"),
    ("kernel/trace.py", "kernel.trace"),
    ("kernel/", "kernel.stack"),
    ("net/udp.py", "net.udp"),
    ("net/rp2p.py", "net.rp2p"),
    ("net/", "net.network"),
    ("fd/", "fd"),
    ("rbcast/", "rbcast"),
    ("consensus/", "consensus"),
    ("abcast/", "abcast"),
    ("gm/", "gm"),
    ("dpu/probes.py", "dpu.probes"),
    ("dpu/abcast_checker.py", "dpu.checkers"),
    ("dpu/properties.py", "dpu.checkers"),
    ("dpu/", "dpu.repl"),
    ("workload/", "workload"),
    ("parallel.py", "parallel"),
    ("runtime/codec.py", "runtime.codec"),
    ("runtime/", "runtime.realtime"),
    ("scenarios/", "scenarios"),
    ("experiments/", "scenarios"),
    ("metrics/", "scenarios"),
)

#: Every bucket, ``other`` (builtins, stdlib, numpy, asyncio) last.
LAYERS = tuple(
    dict.fromkeys([layer for _, layer in LAYER_PREFIXES if layer != "other"] + ["json", "other"])
)


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        #: One dict per finished or open span: ``id``, ``name``,
        #: ``parent`` (id or ``None``), ``pass``, wall ``start``/``end``
        #: and process-CPU ``cpu_start``/``cpu_end``.
        self.spans: List[Dict[str, Any]] = []
        self.pass_id = -1
        #: Results kept from :data:`KEEP_RESULT` wrappers during the pass.
        self.kept: List[Any] = []
        self.missing: List[str] = []
        self._open: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record *name* around the ``with`` body, under the open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "cpu_start": time.process_time(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["cpu_end"] = time.process_time()
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn: Callable[..., Any], keep: bool) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept.append(result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def installed(self, pass_id: int) -> Iterator[None]:
        """Wrappers in place for the ``with`` body; originals restored after."""
        self.pass_id = pass_id
        self.kept = []
        self.missing = []
        for name, module_name, dotted in TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{dotted}")
                continue
            setattr(owner, attr, self._wrap(name, original, dotted in KEEP_RESULT))
            self._patched.append((owner, attr, original))
        try:
            yield
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading spans back
    # ------------------------------------------------------------------ #
    def add_arm_spans(self) -> None:
        """Insert a ``scenarios.arm`` span after every build span.

        Arming (fault schedule, switch plan) has no function of its own
        to wrap: it is the stretch of the harness between the builder
        returning and the backend starting to run, so that is what the
        span covers.
        """
        by_parent: Dict[Optional[int], List[Dict[str, Any]]] = {}
        for record in self.spans:
            by_parent.setdefault(record["parent"], []).append(record)
        for siblings in by_parent.values():
            for build, after in zip(siblings, siblings[1:]):
                if build["name"] == "experiments.build" and after["name"] in (
                    "sim.run", "runtime.run",
                ):
                    self.spans.append({
                        "id": len(self.spans),
                        "name": "scenarios.arm",
                        "parent": build["parent"],
                        "pass": build["pass"],
                        "start": build["end"],
                        "end": after["start"],
                        "cpu_start": build["cpu_end"],
                        "cpu_end": after["cpu_start"],
                    })

    def self_times(self, clock: str) -> Dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        start, end = ("cpu_start", "cpu_end") if clock == "cpu" else ("start", "end")
        own = {r["id"]: r[end] - r[start] for r in self.spans}
        for record in self.spans:
            if record["parent"] is not None:
                own[record["parent"]] -= record[end] - record[start]
        return own


# --------------------------------------------------------------------------- #
# Profile
# --------------------------------------------------------------------------- #
def layer_of(filename: str, function: str) -> str:
    """The profile bucket of one ``cProfile`` entry."""
    if filename == "~":  # built-in: only the C half of json is attributable
        return "json" if "_json" in function else "other"
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        below = path.rsplit("/repro/", 1)[1]
        for prefix, layer in LAYER_PREFIXES:
            if below.startswith(prefix):
                return layer
        return "other"
    if "/json/" in path:
        return "json"
    return "other"


class LayerProfile:
    """One ``cProfile`` on the process-CPU clock, bucketed by layer.

    CPU time, not wall, so the pool parent's and the event loop's waits
    do not count as anybody's work.  ``span`` is handed to a workload in
    place of the tracer's: it profiles exactly the timed region.
    """

    def __init__(self) -> None:
        self._profiler = cProfile.Profile(time.process_time)

    def span(self, name: str) -> Any:
        """Profile the body of the ``bench.pass`` span, nothing else."""
        return self._enabled() if name == "bench.pass" else contextlib.nullcontext()

    @contextlib.contextmanager
    def _enabled(self) -> Iterator[None]:
        self._profiler.enable()
        try:
            yield
        finally:
            self._profiler.disable()

    def buckets(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"self_s", "calls"}`` over everything profiled."""
        out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
        stats = pstats.Stats(self._profiler).stats  # type: ignore[attr-defined]
        for (filename, _line, function), (_prim, calls, self_s, _cum, _callers) in stats.items():
            bucket = out[layer_of(filename, function)]
            bucket["self_s"] += self_s
            bucket["calls"] += calls
        return out
