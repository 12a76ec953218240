import os

import numpy as np
import pytest
from hypothesis import settings

from ppgstress import io, models, pulse, windows

# A property that fails only in CI prints the blob that reproduces it
# (`@reproduce_failure`); local runs keep Hypothesis' defaults.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def rr_series(rr_ms, t0=0.0):
    """RrSeries straight from a list of intervals (no screening losses)."""
    rr = np.asarray(rr_ms, dtype=float)
    times = t0 + np.cumsum(rr) / 1000.0
    return pulse.RrSeries(np.r_[t0, times], rr, times)


def assert_bit_equal(got, want):
    """Same dtype, shape and bytes: equal to the last bit, nan and -0.0 included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def one_fold(X):
    """The `models.Fold` of every row and column of X, unscaled, in a list:
    with it, `models.sgd_logistic_fit` and `models.knn_fit` are single fits on X."""
    n, d = np.shape(X)
    return [models.Fold((n, d), np.arange(n), np.arange(d), np.zeros(d), np.ones(d))]


def modulated_rr(mod_hz, amp_ms=50.0, mean_ms=1000.0, span_s=300.0):
    rr = []
    t = 0.0
    while t < span_s:
        r = mean_ms + amp_ms * np.sin(2 * np.pi * mod_hz * t)
        rr.append(r)
        t += r / 1000.0
    return rr_series(rr)


@pytest.fixture(scope="session")
def cohort16():
    return io.synth_cohort(io.SynthCohortSpec(n_subjects=16, seed=7))


@pytest.fixture(scope="session")
def matrix16(cohort16):
    return windows.build_matrix(cohort16, windows.WindowSpec(80.0, 5.0))
