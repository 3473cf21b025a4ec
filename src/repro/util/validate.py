"""Validation helpers and the exception hierarchy shared across subpackages.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library errors without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, range, or type)."""


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise :class:`ValidationError` unless ``value`` is positive.

    With ``strict=False`` zero is accepted.
    """
    if strict and not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    lo_inclusive: bool = True,
    hi_inclusive: bool = True,
) -> None:
    """Raise :class:`ValidationError` unless ``lo (<)= value (<)= hi``."""
    ok_lo = value >= lo if lo_inclusive else value > lo
    ok_hi = value <= hi if hi_inclusive else value < hi
    if not (ok_lo and ok_hi):
        lb = "[" if lo_inclusive else "("
        rb = "]" if hi_inclusive else ")"
        raise ValidationError(f"{name} must be in {lb}{lo}, {hi}{rb}, got {value!r}")
