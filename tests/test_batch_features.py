"""The batched per-subject feature engine against the per-window scalar reference.

`scalar_hrv` computes each window on its own with numpy's scalar
statistics; `hrv.window_features` computes all windows of a subject in one
pass. They must keep the same rows, drop windows for the same reasons and
agree on every feature.
"""

import logging
from collections import Counter

import numpy as np
import pytest

import scalar_hrv
from ppgstress import hrv, io, pulse, windows

REL = 1e-9
# Order statistics and counts are replicated operation by operation, so
# they agree exactly; sums may associate differently.
EXACT = ("MedianNN", "MadNN", "IQRNN", "pNN20", "pNN50", "MinNN", "MaxNN")


@pytest.fixture(scope="session")
def prepared16(cohort16):
    return {t.subject_id: windows.prepare_trace(t) for t in cohort16}


def scalar_rows(ds, spec, prepared):
    """Kept rows, starts and first drop reasons of the per-window reference."""
    rows, starts, reasons = [], [], []
    for trace in ds:
        wins = windows.segment(trace, spec)
        for win, (feats, reason) in zip(wins, scalar_hrv.window_outcomes(
                prepared[trace.subject_id], wins, spec.size_s)):
            reasons.append(reason)
            if not reason:
                rows.append([feats.values[n] for n in hrv.FEATURE_NAMES])
                starts.append(win.start_s)
    return np.array(rows), np.array(starts), reasons


def assert_features_match(got, want):
    np.testing.assert_allclose(got, want, rtol=REL, atol=0, equal_nan=True)
    for name in EXACT:
        j = hrv.FEATURE_NAMES.index(name)
        np.testing.assert_array_equal(got[:, j], want[:, j], err_msg=name)


@pytest.mark.parametrize("size", [60.0, 62.0, 80.0, 120.0])
def test_cohort_matches_scalar_reference(cohort16, prepared16, size):
    spec = windows.WindowSpec(size, 5.0)
    m = windows.build_matrix(cohort16, spec, prepared=prepared16)
    X, starts, _ = scalar_rows(cohort16, spec, prepared16)
    assert X.shape == m.X.shape
    np.testing.assert_array_equal(m.starts, starts)
    assert_features_match(m.X, X)


def degraded_rr() -> pulse.RrSeries:
    """Screened RR over 0-600 s with stretches that trip every drop rule.

    RR values sit on a 50 ms grid from 800 to 1200 ms, so the ShanEn bin
    edges fall on sample values. 150-260 s is constant (hf_zero,
    no_lf_hf_power, degenerate_poincare); 300-360 s has a spurious peak
    0.15 s after each beat (half the intervals rejected); 400-470 s has no
    peaks at all (too few intervals).
    """
    rng = np.random.default_rng(3)
    peaks = [0.0]
    while peaks[-1] < 600.0:
        t = peaks[-1]
        if 400.0 <= t < 470.0:
            peaks.append(470.0)
            continue
        rr_s = 1.0 if 150.0 <= t < 260.0 else 0.8 + 0.05 * rng.integers(0, 9)
        if 300.0 <= t < 360.0:
            peaks.append(t + 0.15)
            rr_s -= 0.15
        peaks.append(peaks[-1] + rr_s)
    return pulse.to_rr(peaks)


def degraded_dataset(rr: pulse.RrSeries) -> io.Dataset:
    spans = (io.ConditionSpan(0.0, 300.0, io.Condition.RELAXING),
             io.ConditionSpan(300.0, 600.0, io.Condition.STRESSFUL))
    return io.Dataset((io.PpgTrace("d1", 25.0, np.zeros(int(610 * 25)), spans),))


# Batches of 5 split runs of refused and flagged windows at many places.
@pytest.mark.parametrize("batch", [hrv.BATCH_WINDOWS, 5])
@pytest.mark.parametrize("size", [60.0, 62.0, 80.0])
def test_degraded_windows_match_scalar_reference(size, batch, monkeypatch):
    monkeypatch.setattr(hrv, "BATCH_WINDOWS", batch)
    rr = degraded_rr()
    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(size, 5.0)
    wins = windows.segment(ds.traces[0], spec)
    start = np.array([w.start_s for w in wins])
    end = np.array([w.end_s for w in wins])
    lo, hi = pulse.window_bounds(rr.rr_times_s, start, end)
    rej_lo, rej_hi = pulse.window_bounds(rr.rejected_times_s, start, end)
    X, reasons = hrv.window_features(rr, lo, hi, rej_hi - rej_lo)

    outcomes = scalar_hrv.window_outcomes(rr, wins, size)
    refused = np.array([feats is None for feats, _ in outcomes])
    np.testing.assert_array_equal(reasons[:, 0], refused)
    assert np.all(np.isnan(X[refused]))
    for i in np.flatnonzero(~refused):
        feats = outcomes[i][0]
        got_flags = tuple(r for r, on in zip(hrv.DROP_REASONS, reasons[i]) if on)
        assert got_flags == feats.flags, wins[i]
    want = np.array([[feats.values[n] for n in hrv.FEATURE_NAMES]
                     for feats, _ in outcomes if feats is not None])
    assert_features_match(X[~refused], want)

    firsts = Counter(reason for _, reason in outcomes)
    assert {"data_error", "too_many_rejected_intervals", "hf_zero", ""} <= set(firsts)
    # The first interval ending after 150 s still began in the random stretch.
    constant = [i for i, w in enumerate(wins)
                if 152.0 <= w.start_s and w.end_s <= 260.0]
    assert constant and np.all(reasons[constant, 2:])

    m = windows.build_matrix(ds, spec, prepared={"d1": rr})
    kept, starts, _ = scalar_rows(ds, spec, {"d1": rr})
    np.testing.assert_array_equal(m.starts, starts)
    assert_features_match(m.X, kept)


def test_build_matrix_logs_drop_reasons(caplog):
    rr = degraded_rr()
    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(62.0, 5.0)
    with caplog.at_level(logging.INFO, logger="ppgstress.windows"):
        m = windows.build_matrix(ds, spec, prepared={"d1": rr})
    _, _, reasons = scalar_rows(ds, spec, {"d1": rr})
    dropped = Counter(r for r in reasons if r)
    assert m.n_rows == len(reasons) - sum(dropped.values())
    expected = ", ".join(f"{r}: {c}" for r, c in sorted(dropped.items()))
    assert (f"subject d1: dropped {sum(dropped.values())} unusable windows "
            f"({expected})") in caplog.messages


def tie_heavy_rows(n_rows: int, seed: int):
    """RR-like rows whose values sit on, or one ulp beside, their 8 bin edges.

    Odd rows use np.histogram's own linspace edges, where a value one ulp
    below an edge can compute into the bin above it; even rows use edges
    written as lo + k * width / 8, where a value can compute into the bin
    below. A few rows are constant.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_rows):
        lo = rng.uniform(300, 1500)
        hi = lo + rng.choice([0.7, 400.0, rng.uniform(1e-3, 3000)])
        if i % 2:
            grid = np.linspace(lo, hi, hrv.SHANEN_BINS + 1)
        else:
            grid = lo + np.arange(hrv.SHANEN_BINS + 1) * ((hi - lo) / hrv.SHANEN_BINS)
        x = grid[rng.integers(0, hrv.SHANEN_BINS + 1, int(rng.integers(2, 60)))]
        x = np.clip(np.nextafter(x, x + rng.integers(-1, 2, x.size)), lo, hi)
        rows.append(np.full(4, lo) if rng.random() < 0.05 else np.r_[lo, hi, x])
    return rows


def sorted_rows(rows):
    """Rows sorted and padded with +inf, and their lengths."""
    n = np.array([r.size for r in rows])
    S = np.full((len(rows), n.max()), np.inf)
    for i, r in enumerate(rows):
        S[i, :r.size] = np.sort(r)
    return S, n


def test_bin_counts_match_np_histogram():
    rows = tie_heavy_rows(2000, seed=11)
    got = hrv._bin_counts(*sorted_rows(rows))
    want = np.array([scalar_hrv.histogram_counts(r) for r in rows])
    np.testing.assert_array_equal(got, want)


def test_order_statistics_match_numpy():
    # A wide spread of values makes the two sides of numpy's lerp round
    # differently, so the t >= 0.5 branch is exercised.
    rng = np.random.default_rng(4)
    rows = [rng.lognormal(6.5, 3.0, int(rng.integers(4, 60))) for _ in range(2000)]
    S, n = sorted_rows(rows)
    np.testing.assert_array_equal(hrv._sorted_median(S, n),
                                  [np.median(r) for r in rows])
    for q in (0.25, 0.75):
        np.testing.assert_array_equal(hrv._sorted_percentile(S, n, q),
                                      [np.percentile(r, 100 * q) for r in rows])


def test_one_window_functions_are_the_batch_first_row():
    rr = degraded_rr()
    sl = pulse.slice_window(rr, 10.0, 90.0)
    feats = hrv.all_features(sl, 80.0)
    lo, hi = pulse.window_bounds(rr.rr_times_s, [10.0], [90.0])
    X, reasons = hrv.window_features(rr, lo, hi, [sl.n_rejected])
    assert [list(feats.values.values())] == X.tolist()
    assert feats.flags == () and not reasons.any()
