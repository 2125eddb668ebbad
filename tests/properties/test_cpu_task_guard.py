"""Property: every dispatch path applies one incarnation guard to CPU tasks.

:meth:`Machine.execute <repro.sim.process.Machine.execute>` pushes a
CPU-task heap entry that :meth:`Simulator.run
<repro.sim.engine.Simulator.run>`'s fast loop guards inline, while
``step()``, the budgeted loop and the traced loop fire it through
``NodeBackend._run_task``.  Random programs of ``execute`` (zero and
non-zero costs, some chaining more work), ``set_timer`` (cancellable or
not), ``cancel``, ``crash_at`` and ``recover_at`` on two or three
machines must produce the same fire sequence, ``events_processed``,
per-machine ``tasks_executed`` and ``cpu_busy_total`` on all four paths.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, Simulator

MODES = ("run", "budget", "trace", "step")

_TIMES = st.integers(min_value=0, max_value=20).map(lambda k: k * 0.0005)
_COSTS = st.sampled_from([0.0, 0.0, 0.0003, 0.001, 0.0025])


@st.composite
def programs(draw):
    """``(n, ops)``: *n* machines and a list of timed operations."""
    n = draw(st.integers(min_value=2, max_value=3))
    node = st.integers(min_value=0, max_value=n - 1)
    op = st.one_of(
        st.tuples(st.just("execute"), _TIMES, node, _COSTS,
                  st.one_of(st.none(), st.tuples(node, _COSTS))),
        st.tuples(st.just("timer"), _TIMES, node, _COSTS, st.booleans()),
        st.tuples(st.just("cancel"), _TIMES, st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("crash"), _TIMES, node),
        st.tuples(st.just("recover"), _TIMES, node),
    )
    return n, draw(st.lists(op, min_size=1, max_size=40))


def run_program(program, mode):
    """Run *program* on a fresh simulator through dispatch path *mode*."""
    n, ops = program
    hooked = []
    sim = Simulator(
        seed=0,
        trace_hook=(lambda time, handle: hooked.append(time)) if mode == "trace" else None,
    )
    machines = [Machine(sim, i) for i in range(n)]
    fired = []
    handles = []

    def task(label, follow):
        fired.append(("task", label, sim.now))
        if follow is not None:
            m, cost = follow
            machines[m].execute(cost, task, (f"{label}+", None))

    def timer(label):
        fired.append(("timer", label, sim.now))

    def apply(i):
        kind = ops[i][0]
        if kind == "execute":
            _, _, m, cost, follow = ops[i]
            machines[m].execute(cost, task, (i, follow))
        elif kind == "timer":
            _, _, m, delay, cancellable = ops[i]
            handle = machines[m].set_timer(delay, timer, (i,), cancellable=cancellable)
            if handle is not None:
                handles.append((m, handle))
        elif handles:
            m, handle = handles[ops[i][2] % len(handles)]
            machines[m].cancel(handle)

    for i, (kind, time, *rest) in enumerate(ops):
        if kind == "crash":
            machines[rest[0]].crash_at(time)
        elif kind == "recover":
            machines[rest[0]].recover_at(time)
        else:
            sim.schedule_at(time, apply, (i,))

    if mode == "run":
        sim.run()
    elif mode == "budget":
        sim.run(max_events=10**6)
    elif mode == "trace":
        sim.run()
        assert len(hooked) == sim.events_processed
    else:
        while sim.step():
            pass
    return (
        fired,
        sim.events_processed,
        [m.tasks_executed for m in machines],
        [m.cpu_busy_total for m in machines],
    )


@given(programs())
@settings(max_examples=300, deadline=None)
def test_all_dispatch_paths_apply_the_same_guard(program):
    expected = run_program(program, "step")
    for mode in MODES[:-1]:
        assert run_program(program, mode) == expected, mode


def test_a_stale_epoch_task_is_dropped_but_counted_on_every_path():
    """The case the property is about, spelled out: a task queued before
    a crash never runs after the recovery, yet it is one event."""
    for mode in MODES:
        program = (2, [
            ("execute", 0.0, 0, 0.0025, None),
            ("crash", 0.001, 0),
            ("recover", 0.0015, 0),
            ("execute", 0.002, 0, 0.0, None),
        ])
        fired, events, executed, busy = run_program(program, mode)
        assert fired == [("task", 3, 0.002)], mode
        # two applies + crash + recover + the new task + the dropped one
        assert events == 6, mode
        assert executed == [1, 0], mode
        assert busy == [0.0025, 0.0], mode
