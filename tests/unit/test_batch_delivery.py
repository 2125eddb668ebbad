"""Unit tests: block draws stay aligned with scalar draws.

``BufferedDraws.random_block`` (the fault injector draws whole crash
schedules through it) must consume the stream exactly like the same
number of scalar ``random()`` calls, in any interleaving.
"""

from repro.sim.random import BufferedDraws, RngRegistry


class TestSampleBufferedBlock:
    def test_random_block_matches_scalar(self):
        scalar = BufferedDraws(RngRegistry(seed=2).stream("x"))
        block = BufferedDraws(RngRegistry(seed=2).stream("x"))
        expected = [scalar.random() for _ in range(600)]
        got = list(block.random_block(300)) + [block.random() for _ in range(100)]
        got += list(block.random_block(200))
        assert got == expected
