"""Tests for argument validation helpers."""

import pytest

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    env_override,
)


class TestValidation:
    def test_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_positive_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.001)

    def test_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.01)
        with pytest.raises(ValueError):
            check_probability("p", -0.01)

    def test_nan_rejected_by_positive(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))


class TestEnvOverride:
    def test_unset_or_blank_keeps_configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_override("REPRO_X", "a", ("a", "b")) == "a"
        assert env_override("REPRO_X", 3) == 3
        monkeypatch.setenv("REPRO_X", "  ")
        assert env_override("REPRO_X", "a", ("a", "b")) == "a"

    def test_choice_is_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", " B ")
        assert env_override("REPRO_X", "a", ("a", "b")) == "b"

    def test_unknown_choice_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "c")
        with pytest.raises(ValueError, match="REPRO_X must be one of"):
            env_override("REPRO_X", "a", ("a", "b"))

    def test_positive_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "8")
        assert env_override("REPRO_X", 1) == 8

    @pytest.mark.parametrize("raw", ["many", "0", "-2", "1.5"])
    def test_bad_int_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        with pytest.raises(ValueError, match="REPRO_X must be a positive integer"):
            env_override("REPRO_X", 1)
