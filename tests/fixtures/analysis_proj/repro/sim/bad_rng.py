# R2 fixture: the four determinism hazards in a non-protocol package
# (so R1 stays quiet and the findings are attributable to R2 alone).

import random
import time


class Broadcaster:
    def __init__(self, peers):
        self.peers = set(peers)
        self.rng = random.Random()  # planted R2: unseeded RNG
        self.started = time.time()  # planted R2: wall-clock read
        self.table = {}

    def remember(self, obj):
        self.table[id(obj)] = obj  # planted R2: id() as a key

    def flush(self):
        for peer in self.peers:  # planted R2: set iteration feeding sends
            self.call("udp", "send", peer)

    def flush_sorted(self):
        for peer in sorted(self.peers):  # clean: sorted view
            self.call("udp", "send", peer)

    def call(self, service, method, *args):
        pass

    def seeded_ok(self, seed):
        return random.Random(seed)  # clean: explicit seed


class SeamFeeder:
    """Raw-set loops feeding the seam operations R2 did not list before
    the one-spelling collapse (``execute``, ``call_soon``)."""

    def __init__(self, node, sim, pending):
        self.node = node
        self.sim = sim
        self.pending = set(pending)

    def run_all(self):
        for task in self.pending:  # planted R2: set iteration feeding execute
            self.node.execute(0.0, task)

    def soon_all(self):
        for task in self.pending:  # planted R2: set iteration feeding call_soon
            self.sim.call_soon(task)

    def run_sorted(self):
        for task in sorted(self.pending, key=repr):  # clean: sorted view
            self.node.execute(0.0, task)
