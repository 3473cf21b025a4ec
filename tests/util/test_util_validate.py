"""Tests for repro.util.validate."""

import pytest

from repro.util.validate import (
    ReproError,
    ValidationError,
    check_in_range,
    check_positive,
)


class TestValidationError:
    def test_validation_error_is_repro_error(self):
        assert issubclass(ValidationError, ReproError)

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("n", 1)
        check_positive("n", 0.001)

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError):
            check_positive("n", 0)

    def test_accepts_zero_when_not_strict(self):
        check_positive("n", 0, strict=False)

    def test_rejects_negative_always(self):
        with pytest.raises(ValidationError):
            check_positive("n", -1)
        with pytest.raises(ValidationError):
            check_positive("n", -1, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive("n", float("nan"))


class TestCheckInRange:
    def test_accepts_interior(self):
        check_in_range("f", 0.5, 0.0, 1.0)

    def test_bounds_inclusive_by_default(self):
        check_in_range("f", 0.0, 0.0, 1.0)
        check_in_range("f", 1.0, 0.0, 1.0)

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range("f", 0.0, 0.0, 1.0, lo_inclusive=False)
        with pytest.raises(ValidationError):
            check_in_range("f", 1.0, 0.0, 1.0, hi_inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range("f", 1.5, 0.0, 1.0)
        with pytest.raises(ValidationError):
            check_in_range("f", -0.1, 0.0, 1.0)

    def test_message_shows_interval_notation(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            check_in_range("f", 2, 0, 1, lo_inclusive=False)
