"""Exception types shared across the pipeline, and the seed check."""

import numbers


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Bad user input: malformed files, out-of-range values, invalid flags."""


class DataError(PipelineError):
    """Data that passed validation but cannot be processed (e.g. too few beats)."""


def check_seed(seed) -> None:
    """Refuse a random seed that is not a whole number >= 0; a bool is not one."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            and seed >= 0):
        raise ValidationError(f"seed must be a whole number >= 0, got {seed!r}")
