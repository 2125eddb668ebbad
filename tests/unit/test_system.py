"""Unit tests: the System container."""

from dataclasses import replace

import pytest

from repro.errors import KernelError
from repro.experiments import build_group_comm_system
from repro.kernel import Module, Stack, System
from repro.runtime import RealtimeBackend
from repro.runtime.soak import SoakConfig, build_soak_system, soak_spec
from repro.scenarios.spec import PAPER_SPEC


class Simple(Module):
    PROVIDES = ("s",)
    PROTOCOL = "simple"

    def __init__(self, stack, **kwargs):
        super().__init__(stack)
        self.export_call("s", "noop", lambda: None)


class TestSystem:
    def test_builds_n_machines_and_stacks(self):
        sys_ = System(n=4, seed=0)
        assert len(sys_.machines) == 4
        assert len(sys_.stacks) == 4
        assert [m.machine_id for m in sys_.machines] == [0, 1, 2, 3]
        assert sys_.stack(2).stack_id == 2

    def test_n_must_be_positive(self):
        with pytest.raises(KernelError):
            System(n=0)

    def test_alive_tracking(self):
        sys_ = System(n=3, seed=0)
        assert sys_.alive_ids() == [0, 1, 2]
        sys_.crash(1)
        assert sys_.alive_ids() == [0, 2]
        assert [s.stack_id for s in sys_.alive_stacks()] == [0, 2]

    def test_crash_at_schedules(self):
        sys_ = System(n=2, seed=0)
        sys_.crash_at(0, 1.5)
        sys_.run(until=1.0)
        assert not sys_.machine(0).crashed
        sys_.run(until=2.0)
        assert sys_.machine(0).crashed

    def test_on_each_stack(self):
        sys_ = System(n=3, seed=0)
        visited = []
        sys_.on_each_stack(lambda st: visited.append(st.stack_id))
        assert visited == [0, 1, 2]
        visited.clear()
        sys_.on_each_stack(lambda st: visited.append(st.stack_id), only=[1])
        assert visited == [1]

    def test_create_module_everywhere(self):
        sys_ = System(n=3, seed=0)
        sys_.registry.register("simple", Simple, provides=("s",))
        sys_.create_module_everywhere("simple")
        for st in sys_.stacks:
            assert st.bound_module("s") is not None

    def test_trace_shared_across_stacks(self):
        sys_ = System(n=2, seed=0)
        sys_.registry.register("simple", Simple, provides=("s",))
        sys_.create_module_everywhere("simple")
        stacks_seen = {e.stack_id for e in sys_.trace}
        assert stacks_seen == {0, 1}

    def test_trace_disable(self):
        sys_ = System(n=2, seed=0, trace_enabled=False)
        sys_.registry.register("simple", Simple, provides=("s",))
        sys_.create_module_everywhere("simple")
        assert len(sys_.trace) == 0

    def test_run_delegates_to_sim(self):
        sys_ = System(n=1, seed=0)
        sys_.sim.schedule(0.5, lambda: None)
        sys_.run(until=1.0)
        assert sys_.sim.now == 1.0


def _assert_identities(stacks):
    assert stacks
    for stack in stacks:
        assert stack.stack_id == stack.machine.machine_id
        assert stack.modules
        for module in stack.modules.values():
            assert module.stack_id == module.stack.stack_id == stack.machine.machine_id


class TestIdentityAttributes:
    """``stack_id`` is a plain attribute fixed at construction on both
    ``Stack`` and ``Module``, equal to the hosting machine's id."""

    def test_not_properties(self):
        # The per-dispatch read must stay one attribute load: no property
        # chain (Module -> Stack -> machine) may grow back.
        assert not isinstance(getattr(Stack, "stack_id", None), property)
        assert not isinstance(getattr(Module, "stack_id", None), property)

    def test_group_comm_system(self):
        gcs = build_group_comm_system(replace(PAPER_SPEC, n=3, with_gm=True), seed=0)
        _assert_identities(gcs.backend.stacks)

    def test_realtime_soak_system(self):
        config = SoakConfig(nodes=3, duration=0.5, health_port=None)
        backend = RealtimeBackend(config.nodes, seed=0)
        backend.start()
        try:
            soak = build_soak_system(soak_spec(config), config.seed, backend)
            _assert_identities(soak.backend.stacks)
        finally:
            backend.stop()
