"""Property tests: kernel binding/blocking invariants under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpu.properties import check_weak_stack_well_formedness
from repro.kernel import Module, System


class Provider(Module):
    PROVIDES = ("svc",)
    PROTOCOL = "provider"

    def __init__(self, stack):
        super().__init__(stack)
        self.served = []
        self.export_call("svc", "work", self.served.append)


class Caller(Module):
    REQUIRES = ("svc",)
    PROTOCOL = "caller"


#: A step is (time, action); actions: "call", "bind", "unbind".
@st.composite
def step_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    steps = []
    for _ in range(n):
        t = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        action = draw(st.sampled_from(["call", "call", "bind", "unbind"]))
        steps.append((t, action))
    # Always terminate with a final bind so the weak property can hold.
    steps.append((6.0, "bind"))
    return sorted(steps)


class TestBindingBlocking:
    @given(step_sequences())
    @settings(max_examples=40, deadline=None)
    def test_every_call_eventually_served_and_weakly_well_formed(self, steps):
        sys_ = System(n=1, seed=0)
        stack = sys_.stack(0)
        provider = stack.add_module(Provider(stack), bind=False)
        caller = stack.add_module(Caller(stack))
        issued = [0]

        def do(action):
            if action == "call":
                caller.call("svc", "work", issued[0])
                issued[0] += 1
            elif action == "bind":
                if not stack.bindings.is_bound("svc"):
                    stack.bind("svc", provider)
            else:
                if stack.bindings.is_bound("svc"):
                    stack.unbind("svc")

        for t, action in steps:
            sys_.sim.schedule_at(t, do, (action,))
        sys_.run()

        # Every issued call was served exactly once, in issue order.
        assert provider.served == list(range(issued[0]))
        # And the recorded trace satisfies weak stack-well-formedness.
        assert check_weak_stack_well_formedness(sys_.trace) == []

    @given(step_sequences())
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_bound_provider_always(self, steps):
        sys_ = System(n=1, seed=0)
        stack = sys_.stack(0)
        p1 = stack.add_module(Provider(stack), bind=False)
        p2 = stack.add_module(Provider(stack), bind=False)
        providers = [p1, p2]
        flip = [0]
        observed = []

        def do(action):
            if action == "bind":
                if not stack.bindings.is_bound("svc"):
                    stack.bind("svc", providers[flip[0] % 2])
                    flip[0] += 1
            elif action == "unbind":
                if stack.bindings.is_bound("svc"):
                    stack.unbind("svc")
            observed.append(
                sum(1 for m in providers if stack.bound_module("svc") is m)
            )

        for t, action in steps:
            sys_.sim.schedule_at(t, do, (action,))
        sys_.run()
        assert all(c <= 1 for c in observed)
