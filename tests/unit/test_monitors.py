"""Unit tests: counters."""

from repro.sim import Counter


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("a")
        c.incr("a", 2)
        assert c.get("a") == 3

    def test_missing_key_is_zero(self):
        assert Counter().get("nope") == 0

    def test_as_dict_snapshot(self):
        c = Counter()
        c.incr("x")
        snap = c.as_dict()
        c.incr("x")
        assert snap == {"x": 1}
