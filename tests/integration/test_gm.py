"""Integration tests: group membership over (replaceable) atomic broadcast."""


from dataclasses import replace

from repro.experiments import build_group_comm_system
from repro.kernel import WellKnown
from repro.scenarios.spec import PAPER_SPEC


def build(n=4, seed=61, duration=6.0):
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=40.0, duration=duration, with_gm=True)
    return build_group_comm_system(spec, seed)


def gm_of(gcs, stack_id):
    return next(
        m for m in gcs.backend.stacks[stack_id].modules.values() if m.protocol == "gm"
    )


class TestViews:
    def test_initial_view_everywhere(self):
        gcs = build()
        gcs.run(until=1.0)
        for s in range(4):
            vid, members = gcs.backend.stacks[s].query(WellKnown.GM, "current_view")
            assert vid == 0 and members == frozenset({0, 1, 2, 3})

    def test_explicit_expel_installs_same_view_everywhere(self):
        gcs = build()
        gm_of(gcs, 1).call(WellKnown.GM, "propose_expel", 3)
        gcs.run(until=3.0)
        histories = [gm_of(gcs, s).view_history for s in range(3)]
        assert histories[0] == histories[1] == histories[2]
        assert histories[0][-1] == (1, frozenset({0, 1, 2}))

    def test_join_after_expel(self):
        gcs = build(seed=62)
        gm_of(gcs, 0).call(WellKnown.GM, "propose_expel", 3)
        gcs.backend.sim.schedule(
            2.0, gm_of(gcs, 0).call, WellKnown.GM, "propose_join", 3
        )
        gcs.run(until=5.0)
        for s in range(3):
            assert gm_of(gcs, s).members == frozenset({0, 1, 2, 3})
            assert gm_of(gcs, s).view_id == 2

    def test_crash_triggers_automatic_expulsion(self):
        gcs = build(seed=63, duration=8.0)
        gcs.backend.nodes[2].crash_at(3.0)
        gcs.run(until=8.0)
        for s in (0, 1, 3):
            gm = gm_of(gcs, s)
            assert gm.members == frozenset({0, 1, 3})
        # exactly one view change, despite n detectors suspecting:
        assert gm_of(gcs, 0).view_id == 1

    def test_duplicate_proposals_do_not_double_expel(self):
        gcs = build(seed=64)
        gm_of(gcs, 0).call(WellKnown.GM, "propose_expel", 3)
        gm_of(gcs, 1).call(WellKnown.GM, "propose_expel", 3)
        gcs.run(until=3.0)
        assert gm_of(gcs, 0).view_id == 1
        assert gm_of(gcs, 0).members == frozenset({0, 1, 2})
