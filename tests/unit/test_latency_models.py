"""Unit tests: latency models."""

import numpy as np
import pytest

from repro.sim.latency import ConstantLatency, LogNormalLatency, lan_latency

RNG = np.random.default_rng(42)

ALL_MODELS = [
    ConstantLatency(0.001),
    LogNormalLatency(tail_mean=0.001, sigma=0.5, floor=0.0002),
    lan_latency(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestAllModels:
    def test_samples_non_negative(self, model):
        rng = np.random.default_rng(1)
        assert all(model.sample(rng) >= 0 for _ in range(200))

    def test_samples_at_least_floor(self, model):
        rng = np.random.default_rng(2)
        floor = getattr(model, "floor", 0.0)
        assert all(model.sample(rng) >= floor for _ in range(200))

    def test_empirical_mean_close_to_declared(self, model):
        rng = np.random.default_rng(3)
        samples = [model.sample(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.15)


class TestConstant:
    def test_exact(self):
        assert ConstantLatency(0.005).sample(RNG) == 0.005

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestLogNormal:
    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalLatency(tail_mean=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(tail_mean=0.001, sigma=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(tail_mean=0.001, floor=-0.1)
