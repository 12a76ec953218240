"""Exception types shared across the pipeline, and the seed and k checks."""

import numbers


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Bad user input: malformed files, out-of-range values, invalid flags."""


class DataError(PipelineError):
    """Data that passed validation but cannot be processed (e.g. too few beats)."""


def is_whole(value) -> bool:
    """Whether value is a whole number: an Integral that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Refuse a random seed that is not a whole number >= 0."""
    if not (is_whole(seed) and seed >= 0):
        raise ValidationError(f"seed must be a whole number >= 0, got {seed!r}")


def check_k(k) -> None:
    """Refuse a count of selected features that is not a whole number >= 1."""
    if not is_whole(k):
        raise ValidationError(f"k must be a whole number, got {k!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
