"""Property tests: the link policy's verdicts equal the old inline send path.

:meth:`repro.net.links.LinkPolicy.verdict` replaced the fault logic that
was written inline in ``SimNetwork.send`` (and its ``_one_way_delay``).
The reference below is that inline code, kept verbatim apart from
returning what it decided instead of scheduling it.  On random partition
and link tables, LAN rates, corruption floors, checksum settings and
seeds, both must return equal verdicts for every datagram — the same
drop, the same mangling, bit-identical delays for each copy — count the
same, and leave the impairment and latency streams at the same draw.
"""

from collections import Counter
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.links import LinkImpairment, LinkPolicy
from repro.sim.latency import lan_latency
from repro.sim.random import BufferedDraws, RngRegistry

NODES = (0, 1, 2, 3)


# --------------------------------------------------------------------------- #
# Reference: the inline fault path of the old SimNetwork.send
# --------------------------------------------------------------------------- #
class ReferenceNetwork:
    def __init__(self, draws, sample, loss_rate, duplicate_rate):
        self._impair_draws = draws
        self._sample = sample
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self._partitions = set()
        self._oneway = set()
        self._links: Dict[Tuple[int, int], LinkImpairment] = {}
        self.extra_latency = 0.0
        self.corrupt_rate = 0.0
        self.checksum = True
        self.counts: Counter = Counter()

    def partition(self, group_a, group_b):
        for a in group_a:
            for b in group_b:
                if a != b:
                    self._partitions.add(frozenset((a, b)))

    def partition_oneway(self, src_group, dst_group):
        for src in src_group:
            for dst in dst_group:
                if src != dst:
                    self._oneway.add((src, dst))

    def impair_link(self, src, dst, symmetric=True, **rates):
        impairment = LinkImpairment(**rates)
        self._links[(src, dst)] = impairment
        if symmetric:
            self._links[(dst, src)] = impairment

    def is_partitioned(self, a, b):
        if self._partitions and frozenset((a, b)) in self._partitions:
            return True
        return bool(self._oneway) and (a, b) in self._oneway

    def send(self, src, dst) -> Optional[Tuple[bool, List[float]]]:
        if (self._partitions or self._oneway) and self.is_partitioned(src, dst):
            self.counts["dropped_partition"] += 1
            return None
        link = self._links.get((src, dst)) if self._links else None
        loss = self.loss_rate
        duplicate = self.duplicate_rate
        if link is not None:
            loss = min(1.0, loss + link.loss_rate)
            duplicate = min(1.0, duplicate + link.duplicate_rate)
        if loss > 0.0 and self._impair_draws.random() < loss:
            self.counts["dropped_loss"] += 1
            return None
        corrupt = self.corrupt_rate
        if link is not None and link.corrupt_rate:
            corrupt = min(1.0, corrupt + link.corrupt_rate)
        mangled = False
        if corrupt > 0.0 and self._impair_draws.random() < corrupt:
            self.counts["corrupted"] += 1
            if self.checksum:
                self.counts["corrupted_dropped"] += 1
                return None
            mangled = True
        delays = [self._one_way_delay(link)]
        if duplicate > 0.0 and self._impair_draws.random() < duplicate:
            delays.append(self._one_way_delay(link))
            self.counts["duplicated"] += 1
        return mangled, delays

    def _one_way_delay(self, link):
        delay = self._sample() + self.extra_latency
        if link is not None:
            delay += link.extra_latency
            if (
                link.reorder_rate > 0.0
                and self._impair_draws.random() < link.reorder_rate
            ):
                delay += self._impair_draws.random() * link.reorder_delay
                self.counts["reordered"] += 1
        return delay


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
lan_rate = st.one_of(st.just(0.0), st.floats(0.0, 0.9))
seconds = st.one_of(st.just(0.0), st.floats(0.0, 0.05))
group = st.frozensets(st.sampled_from(NODES), max_size=3)
impairment = st.fixed_dictionaries({
    "loss_rate": rate,
    "duplicate_rate": rate,
    "reorder_rate": rate,
    "reorder_delay": seconds,
    "extra_latency": seconds,
    "corrupt_rate": rate,
})
links = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.booleans(), impairment),
    max_size=4,
)
datagrams = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(lambda p: p[0] != p[1]),
    max_size=60,
)


LATENCY = lan_latency()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loss=lan_rate,
    duplicate=lan_rate,
    corrupt_floor=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    checksum=st.booleans(),
    extra_latency=seconds,
    partitions=st.lists(st.tuples(group, group), max_size=2),
    oneway=st.lists(st.tuples(group, group), max_size=2),
    link_table=links,
    sends=datagrams,
)
def test_policy_verdicts_equal_the_inline_send_path(
    seed, loss, duplicate, corrupt_floor, checksum, extra_latency,
    partitions, oneway, link_table, sends,
):
    ref_impair = BufferedDraws(RngRegistry(seed).stream("net.impairments"))
    ref_latency = BufferedDraws(RngRegistry(seed).stream("net.latency"))
    reference = ReferenceNetwork(
        ref_impair, lambda: LATENCY.sample_buffered(ref_latency), loss, duplicate
    )
    policy = LinkPolicy(
        NODES,
        RngRegistry(seed).stream("net.impairments"),
        latency=LATENCY,
        latency_rng=RngRegistry(seed).stream("net.latency"),
        loss_rate=loss,
        duplicate_rate=duplicate,
    )
    for side in (reference, policy):
        side.corrupt_rate = corrupt_floor
        side.checksum = checksum
        side.extra_latency = extra_latency
        for a, b in partitions:
            side.partition(a, b)
        for a, b in oneway:
            side.partition_oneway(a, b)
        for src, dst, symmetric, rates in link_table:
            side.impair_link(src, dst, symmetric=symmetric, **rates)

    for a in NODES:
        for b in NODES:
            assert policy.is_partitioned(a, b) == reference.is_partitioned(a, b)
    for src, dst in sends:
        expected = reference.send(src, dst)
        verdict = policy.verdict(src, dst)
        if expected is None:
            assert verdict is None
            continue
        mangled, delay, duplicate_delay = verdict
        copies = [delay] if duplicate_delay is None else [delay, duplicate_delay]
        assert (mangled, copies) == expected

    counts = {
        key: getattr(policy, key)
        for key in ("dropped_partition", "dropped_loss", "duplicated", "reordered",
                    "corrupted", "corrupted_dropped")
    }
    assert {k: v for k, v in counts.items() if v} == dict(reference.counts)
    # Same number of draws consumed on both streams.
    assert [policy._draws.random() for _ in range(3)] == [
        ref_impair.random() for _ in range(3)
    ]
    assert [LATENCY.sample_buffered(policy._latency_draws) for _ in range(3)] == [
        LATENCY.sample_buffered(ref_latency) for _ in range(3)
    ]
