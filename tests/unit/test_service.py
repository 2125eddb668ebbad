"""Unit tests: service specifications and naming conventions."""

import pytest

from repro.kernel.service import (
    ABCAST_SPEC,
    ServiceSpec,
    WellKnown,
    is_replacement_service,
    replacement_service_name,
    spec_for,
)


class TestServiceSpec:
    def test_valid_names(self):
        for name in ("abcast", "r-abcast", "fd", "my_service2"):
            assert ServiceSpec(name).name == name

    def test_invalid_names_rejected(self):
        for bad in ("", "Abcast", "2abc", "a b", "-x"):
            with pytest.raises(ValueError):
                ServiceSpec(bad)

    def test_vocabulary_checks_when_declared(self):
        spec = ServiceSpec("s", calls={"go"}, responses={"done"})
        assert spec.allows_call("go")
        assert not spec.allows_call("stop")
        assert spec.allows_response("done")
        assert not spec.allows_response("other")

    def test_empty_vocabulary_allows_everything(self):
        spec = ServiceSpec("s")
        assert spec.allows_call("anything")
        assert spec.allows_response("anything")

    def test_frozen_sets(self):
        spec = ServiceSpec("s", calls=["a", "b"])
        assert isinstance(spec.calls, frozenset)


class TestReplacementNaming:
    def test_r_prefix(self):
        assert replacement_service_name("abcast") == "r-abcast"

    def test_is_replacement(self):
        assert is_replacement_service("r-abcast")
        assert not is_replacement_service("abcast")

    def test_wellknown_consistency(self):
        assert WellKnown.R_ABCAST == replacement_service_name(WellKnown.ABCAST)


class TestWellKnownSpecs:
    def test_spec_lookup(self):
        assert spec_for("abcast") is ABCAST_SPEC
        assert spec_for("nonexistent") is None

    def test_abcast_vocabulary(self):
        assert ABCAST_SPEC.allows_call("abcast")
        assert ABCAST_SPEC.allows_response("adeliver")
