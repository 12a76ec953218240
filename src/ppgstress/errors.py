"""Exception types shared across the pipeline, and the seed, k, real-number,
real-array and subject-id checks."""

import math
import numbers

import numpy as np


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Bad user input: malformed files, out-of-range values, invalid flags."""


class DataError(PipelineError):
    """Data that passed validation but cannot be processed (e.g. too few beats)."""


def is_whole(value) -> bool:
    """Whether value is a whole number: an Integral that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(value, what: str) -> float:
    """Refuse a bool or a value that is not a real number; returns the value
    as a float, +-inf for one too large for a float, which range checks
    then refuse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_array(value, what: str, ndim: int = 1) -> np.ndarray:
    """Refuse a value that is not an array of real numbers with `ndim` axes:
    a ragged nest of sequences, or a bool, complex, str or object dtype.
    Returns it as an array, not cast to float."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged
        raise ValidationError(f"{what} must be {ndim}-D, got a ragged sequence") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real, got dtype {a.dtype}")
    if a.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-D, got shape {a.shape}")
    return a


def check_subject_id(subject_id) -> None:
    """Refuse a subject id that cannot name the subject's files and be a
    field of the feature CSV."""
    if not (isinstance(subject_id, str) and subject_id
            and not set(subject_id) & set(",\r\n/\\")):
        raise ValidationError(f"subject id {subject_id!r} must be non-empty "
                              "and hold no ',', CR, LF, '/' or '\\'")


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
