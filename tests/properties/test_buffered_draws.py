"""Property tests: block-buffered draws are bit-identical to scalar draws.

The batched-RNG core (``BufferedDraws``) only keeps same-seed runs
unchanged if numpy's vectorised distribution kernels consume the
underlying bitstream exactly like the equivalent sequence of scalar
calls.  These properties pin that contract for every distribution the
hot paths use, plus the two wiring points (latency models, workload
jitter) that rely on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import lan_latency
from repro.sim.latency import ConstantLatency, LogNormalLatency
from repro.sim.random import BufferedDraws, RngRegistry

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
COUNTS = st.integers(min_value=1, max_value=700)  # crosses block boundaries


def _pair(seed, name="stream"):
    """Two independent generators positioned identically."""
    return (
        RngRegistry(seed=seed).stream(name),
        RngRegistry(seed=seed).stream(name),
    )


class TestScalarEquivalence:
    @given(SEEDS, COUNTS)
    @settings(max_examples=30, deadline=None)
    def test_random(self, seed, count):
        scalar_rng, buf_rng = _pair(seed)
        draws = BufferedDraws(buf_rng)
        assert [draws.random() for _ in range(count)] == [
            scalar_rng.random() for _ in range(count)
        ]

    @given(SEEDS, COUNTS, st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_exponential(self, seed, count, scale):
        scalar_rng, buf_rng = _pair(seed)
        draws = BufferedDraws(buf_rng)
        assert [draws.exponential(scale) for _ in range(count)] == [
            scalar_rng.exponential(scale) for _ in range(count)
        ]

    @given(SEEDS, COUNTS, st.floats(min_value=-10.0, max_value=2.0),
           st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_lognormal(self, seed, count, mu, sigma):
        scalar_rng, buf_rng = _pair(seed)
        draws = BufferedDraws(buf_rng)
        assert [draws.lognormal(mu, sigma) for _ in range(count)] == [
            scalar_rng.lognormal(mu, sigma) for _ in range(count)
        ]

    @given(SEEDS, st.lists(st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_random_block(self, seed, sizes):
        """Vector requests chunked through the buffer match one scalar run."""
        scalar_rng, buf_rng = _pair(seed)
        draws = BufferedDraws(buf_rng)
        got = [v for n in sizes for v in draws.random_block(n)]
        expected = [scalar_rng.random() for _ in range(sum(sizes))]
        assert got == expected


class TestLatencyModelEquivalence:
    MODELS = [
        ConstantLatency(0.001),
        LogNormalLatency(tail_mean=0.001, sigma=0.5, floor=0.0002),
        lan_latency(),
    ]

    @given(SEEDS, st.integers(min_value=1, max_value=600))
    @settings(max_examples=15, deadline=None)
    def test_sample_buffered_matches_sample(self, seed, count):
        for model in self.MODELS:
            scalar_rng, buf_rng = _pair(seed, name=type(model).__name__)
            draws = BufferedDraws(buf_rng)
            buffered = [model.sample_buffered(draws) for _ in range(count)]
            scalar = [model.sample(scalar_rng) for _ in range(count)]
            assert buffered == scalar


class TestDeterminismUnderMixing:
    """Heterogeneous usage loses scalar-equivalence but not determinism."""

    @given(SEEDS, st.lists(st.sampled_from(["random", "expo", "logn", "raw"]),
                           min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_same_call_sequence_same_values(self, seed, calls):
        def run():
            draws = BufferedDraws(RngRegistry(seed=seed).stream("mixed"))
            out = []
            for call in calls:
                if call == "random":
                    out.append(draws.random())
                elif call == "expo":
                    out.append(draws.exponential(2.0))
                elif call == "logn":
                    out.append(draws.lognormal(0.0, 1.0))
                else:
                    out.append(float(draws.raw.standard_normal()))
            return out

        assert run() == run()

    def test_raw_discards_buffer(self):
        draws = BufferedDraws(np.random.default_rng(0), block=16)
        draws.random()
        assert len(draws._buf) == 16
        draws.raw
        assert draws._buf == [] and draws._kind is None

    def test_block_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            BufferedDraws(np.random.default_rng(0), block=0)


class TestLogNormalMuCache:
    def test_mu_cached_and_correct(self):
        import math

        model = LogNormalLatency(tail_mean=0.003, sigma=0.7, floor=0.0)
        expected = math.log(0.003) - 0.5 * 0.7 * 0.7
        assert model.mu == expected
        assert model._mu() == expected

    def test_cached_mu_same_samples_as_before(self):
        """The cached-mu sample path draws the exact historical values."""
        import math

        model = LogNormalLatency(tail_mean=0.003, sigma=0.7, floor=0.0001)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        mu = math.log(0.003) - 0.5 * 0.7 * 0.7
        for _ in range(100):
            assert model.sample(rng_a) == 0.0001 + float(rng_b.lognormal(mu, 0.7))
