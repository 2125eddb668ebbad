"""Unit tests: latency (paper definition), series tools, overhead."""

import pytest

from repro.dpu.probes import DeliveryLog
from repro.metrics import (
    bin_series,
    find_perturbation,
    latency_series,
    mean_latency,
    message_latency,
    relative_overhead,
    windowed_mean_latency,
)


def make_log():
    """m1 sent by 0 at t=1, delivered at t=1.1/1.2/1.3 on stacks 0/1/2."""
    log = DeliveryLog()
    log.note_send("m1", 0, 1.0)
    log.note_delivery("m1", 0, 1.1)
    log.note_delivery("m1", 1, 1.2)
    log.note_delivery("m1", 2, 1.3)
    log.note_send("m2", 1, 2.0)
    log.note_delivery("m2", 0, 2.4)
    log.note_delivery("m2", 1, 2.4)
    log.note_delivery("m2", 2, 2.4)
    return log


class TestPaperLatencyDefinition:
    def test_average_over_stacks(self):
        log = make_log()
        # t_i(m1) = 0.1, 0.2, 0.3 -> average 0.2
        assert message_latency(log, "m1") == pytest.approx(0.2)

    def test_subset_of_stacks(self):
        log = make_log()
        assert message_latency(log, "m1", stacks=[0, 2]) == pytest.approx(0.2)
        assert message_latency(log, "m1", stacks=[2]) == pytest.approx(0.3)

    def test_undelivered_returns_none(self):
        log = DeliveryLog()
        log.note_send("ghost", 0, 1.0)
        assert message_latency(log, "ghost") is None

    def test_series_ordered_by_send_time(self):
        log = make_log()
        series = latency_series(log)
        assert [p.key for p in series] == ["m1", "m2"]
        assert series[1].latency == pytest.approx(0.4)

    def test_mean_latency(self):
        assert mean_latency(make_log()) == pytest.approx(0.3)

    def test_windowed_mean(self):
        log = make_log()
        assert windowed_mean_latency(log, 0.0, 1.5) == pytest.approx(0.2)
        assert windowed_mean_latency(log, 1.5, 3.0) == pytest.approx(0.4)
        assert windowed_mean_latency(log, 5.0, 6.0) is None

    def test_duplicate_send_key_rejected(self):
        log = make_log()
        with pytest.raises(ValueError):
            log.note_send("m1", 2, 9.0)


class TestSeriesTools:
    def test_bin_series(self):
        pts = [(0.1, 1.0), (0.2, 3.0), (1.1, 10.0)]
        binned = bin_series(pts, bin_width=1.0, start=0.0)
        assert binned == [(0.5, 2.0), (1.5, 10.0)]

    def test_bin_series_empty(self):
        assert bin_series([], 1.0) == []

    def test_bin_width_validation(self):
        with pytest.raises(ValueError):
            bin_series([(0, 1)], 0.0)

    def test_perturbation_found(self):
        base = [(t * 0.1, 1.0) for t in range(50)]
        spike = [(5.0 + t * 0.1, 5.0) for t in range(5)]
        tail = [(5.5 + t * 0.1, 1.0) for t in range(30)]
        p = find_perturbation(base + spike + tail, event_time=5.0)
        assert p is not None
        # One boundary point may land in the last pre-event bin (float
        # binning), so the baseline tolerance is deliberately loose.
        assert p.baseline == pytest.approx(1.0, rel=0.1)
        assert p.peak == pytest.approx(5.0, rel=0.1)
        assert 0.3 <= p.duration <= 0.8
        assert p.peak_factor == pytest.approx(5.0, rel=0.2)

    def test_no_perturbation_below_threshold(self):
        flat = [(t * 0.1, 1.0) for t in range(100)]
        assert find_perturbation(flat, event_time=5.0) is None


class TestStats:
    def test_relative_overhead(self):
        assert relative_overhead(100.0, 105.0) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            relative_overhead(0.0, 1.0)

