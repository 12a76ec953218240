"""The batched per-subject feature engine against the per-window scalar reference.

`scalar_hrv` computes each window on its own with numpy's scalar
statistics; `hrv.window_features` computes all windows of a subject in one
pass. They must keep the same rows, drop windows for the same reasons and
agree on every feature.
"""

import dataclasses
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_hrv
from conftest import assert_bit_equal
from ppgstress import dsp, evaluate, hrv, io, pulse, windows

REL = 1e-9
# Order statistics and counts are replicated operation by operation, so
# they agree exactly; sums may associate differently.
EXACT = ("MedianNN", "MadNN", "IQRNN", "pNN20", "pNN50", "MinNN", "MaxNN")
# Sizes that share windows' first beats: 60 and 62 s tachograms are shorter
# than one Welch segment, 100 and 120 s ones hold two.
SWEEP_SIZES = (60.0, 62.0, 80.0, 100.0, 120.0)


@pytest.fixture(scope="session")
def prepared16(cohort16):
    return {t.subject_id: windows.prepare_trace(t) for t in cohort16}


@pytest.fixture(scope="module")
def sweep16(cohort16):
    """The matrix `sweep_windows` builds at each of SWEEP_SIZES on cohort16."""
    built = {}

    def recording(ds, spec, prepared=None):
        built[spec.size_s] = windows.build_matrix(ds, spec, prepared)
        return built[spec.size_s]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "build_matrix", recording)
        evaluate.sweep_windows(cohort16, SWEEP_SIZES)
    return built


def scalar_rows(ds, spec, prepared):
    """Kept rows, starts and first drop reasons of the per-window reference."""
    rows, starts, reasons = [], [], []
    for trace in ds:
        wins = windows.segment(trace, spec)
        for start, (feats, reason) in zip(wins.start_s, scalar_hrv.window_outcomes(
                prepared[trace.subject_id], wins, spec.size_s)):
            reasons.append(reason)
            if not reason:
                rows.append([feats.values[n] for n in hrv.FEATURE_NAMES])
                starts.append(start)
    return np.array(rows), np.array(starts), reasons


def assert_features_match(got, want):
    np.testing.assert_allclose(got, want, rtol=REL, atol=0, equal_nan=True)
    for name in EXACT:
        j = hrv.FEATURE_NAMES.index(name)
        np.testing.assert_array_equal(got[:, j], want[:, j], err_msg=name)


@pytest.mark.parametrize("size", SWEEP_SIZES)
def test_cohort_matches_scalar_reference(cohort16, prepared16, sweep16, size):
    spec = windows.WindowSpec(size, 5.0)
    m = sweep16[size]
    X, starts, _ = scalar_rows(cohort16, spec, prepared16)
    assert X.shape == m.X.shape
    np.testing.assert_array_equal(m.starts, starts)
    assert_features_match(m.X, X)
    # Segments shared with other sizes change no bit of a size's matrix.
    alone = windows.build_matrix(cohort16, spec, {
        sid: dataclasses.replace(rr) for sid, rr in prepared16.items()})
    np.testing.assert_array_equal(m.X, alone.X)
    np.testing.assert_array_equal(m.starts, alone.starts)


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


def features_in_calls(rr: pulse.RrSeries, start_s, end_s, batch: int | None = None):
    """`window_features` of the windows in calls of at most `batch` windows
    (all in one call by default), sharing the series' segment table; the
    calls' rows stacked."""
    batch = batch or len(start_s)
    parts = [hrv.window_features(rr, start_s[i:i + batch], end_s[i:i + batch])
             for i in range(0, len(start_s), batch)]
    return tuple(np.vstack(arrays) for arrays in zip(*parts))


def check_degraded(rr: pulse.RrSeries, size: float, batch: int | None = None):
    """`window_features` on the degraded trace at one size, in calls of at
    most `batch` windows, with the series' segment table, against the scalar
    reference: the same refusals, flags and values. Returns the windows, the
    reference outcomes, the rows and the drop reasons."""
    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(size, 5.0)
    wins = windows.segment(ds.traces[0], spec)
    X, reasons = features_in_calls(rr, wins.start_s, wins.end_s, batch)

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
    return wins, outcomes, X, reasons


# Calls of 5 windows split runs of refused and flagged windows at many places.
@pytest.mark.parametrize("batch", [64, 5])
@pytest.mark.parametrize("size", [60.0, 62.0, 80.0])
def test_degraded_windows_match_scalar_reference(size, batch):
    rr = degraded_rr()
    wins, outcomes, _, reasons = check_degraded(rr, size, batch)
    firsts = Counter(reason for _, reason in outcomes)
    assert {"data_error", "too_many_rejected_intervals", "hf_zero", ""} <= set(firsts)
    # The first interval ending after 150 s still began in the random stretch.
    constant = [i for i, w in enumerate(wins)
                if 152.0 <= w.start_s and w.end_s <= 260.0]
    assert constant and np.all(reasons[constant, 2:])

    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(size, 5.0)
    m = windows.build_matrix(ds, spec, prepared={"d1": dataclasses.replace(rr)})
    kept, starts, _ = scalar_rows(ds, spec, {"d1": rr})
    np.testing.assert_array_equal(m.starts, starts)
    assert_features_match(m.X, kept)


@pytest.mark.parametrize("batch", [64, 5])
def test_degraded_sweep_shares_segments_exactly(batch):
    shared, unshared = degraded_rr(), 0
    for size in SWEEP_SIZES:
        alone = dataclasses.replace(shared)
        X = check_degraded(alone, size, batch)[2]
        np.testing.assert_array_equal(check_degraded(shared, size, batch)[2], X)
        unshared += alone.powers.keys.size
    assert shared.powers.keys.size < unshared
    # A second pass finds every segment in the table.
    held = shared.powers.keys.copy()
    for size in SWEEP_SIZES:
        check_degraded(shared, size, batch)
    np.testing.assert_array_equal(shared.powers.keys, held)


def test_each_prepared_series_owns_a_fresh_table(cohort16):
    trace = cohort16.traces[0]
    first, second = windows.prepare_trace(trace), windows.prepare_trace(trace)
    assert first.powers is not second.powers
    hrv.window_features(first, [0.0], [120.0])
    assert first.powers.keys.size and not second.powers.keys.size


def test_replace_and_slice_give_fresh_tables():
    rr = degraded_rr()
    hrv.window_features(rr, [0.0], [120.0])
    copy, part = dataclasses.replace(rr), pulse.slice_window(rr, 0.0, 300.0)
    for other in (copy, part):
        assert other.powers is not rr.powers and other.powers.keys.size == 0
    # The table is neither compared nor shown.
    assert copy == rr and "powers" not in repr(rr)


@pytest.mark.parametrize("flip", [False, True])
def test_interleaved_subjects_match_each_alone(cohort16, prepared16, flip):
    # Two subjects' series filled by alternating calls, in either order, give
    # the rows of each series built alone, and those of the per-window
    # reference, which keeps no segment table.
    traces = cohort16.traces[:2][::-1] if flip else cohort16.traces[:2]
    series = {t.subject_id: dataclasses.replace(prepared16[t.subject_id])
              for t in traces}
    for size in SWEEP_SIZES:
        spec = windows.WindowSpec(size, 5.0)
        for trace in traces:
            wins = windows.segment(trace, spec)
            alone = dataclasses.replace(prepared16[trace.subject_id])
            X, reasons = hrv.window_features(series[trace.subject_id], wins.start_s,
                                             wins.end_s)
            want_X, want_reasons = hrv.window_features(alone, wins.start_s, wins.end_s)
            assert_bit_equal(X, want_X)
            assert_bit_equal(reasons, want_reasons)
            kept = scalar_rows(io.Dataset((trace,)), spec, prepared16)[0]
            assert_features_match(X[~reasons.any(axis=1)], kept)


SPECTRAL = [i for i, (_, domain, _, _) in enumerate(hrv.CATALOG) if domain == "frequency"]


def assert_grouping_free(rr: pulse.RrSeries, wins):
    """One `window_features` call over all windows against calls of 1, 5 and
    64 windows, each grouping with its own segment table, so that each
    computes its segments in different Welch calls. Reasons and spectral
    columns are bit-equal. The other columns agree within REL: their sums run
    over rows padded to the longest window of the call, and the padded
    length changes how a pairwise sum groups its terms."""
    X, reasons = hrv.window_features(dataclasses.replace(rr), wins.start_s, wins.end_s)
    for batch in (1, 5, 64):
        got_X, got_reasons = features_in_calls(dataclasses.replace(rr), wins.start_s,
                                               wins.end_s, batch)
        assert_bit_equal(got_reasons, reasons)
        assert_bit_equal(got_X[:, SPECTRAL], X[:, SPECTRAL])
        assert_features_match(got_X, X)


@pytest.mark.parametrize("size", [60.0, 62.0, 80.0, 120.0])
def test_degraded_features_do_not_depend_on_call_grouping(size):
    rr = degraded_rr()
    trace = degraded_dataset(rr).traces[0]
    assert_grouping_free(rr, windows.segment(trace, windows.WindowSpec(size, 5.0)))


@pytest.mark.parametrize("size", [60.0, 100.0])
def test_cohort_features_do_not_depend_on_call_grouping(cohort16, prepared16, size):
    trace = cohort16.traces[0]
    assert_grouping_free(prepared16[trace.subject_id],
                         windows.segment(trace, windows.WindowSpec(size, 5.0)))


def test_segment_bands_do_not_depend_on_shared_segments():
    # The segment of the degraded trace that starts on beat 401 and ends at
    # tachogram sample 222 got HF ...605 instead of ...607 when another
    # 222-sample segment shared its Welch call.
    rr = degraded_rr()
    t, rr_ms = rr.rr_times_s, rr.rr_ms
    alone = hrv._segment_bands(t, rr_ms, np.array([401]), np.array([222]))
    assert alone[0, 2] == 8842.176539761607
    for other in (0, 120, 450):
        shared = hrv._segment_bands(t, rr_ms, np.array([other, 401]), np.array([222, 222]))
        assert_bit_equal(shared[1], alone[0])


@pytest.mark.parametrize("length", [222, 240, 256])
def test_band_powers_of_a_stack_are_each_row_alone(length):
    rng = np.random.default_rng(length)
    tach = 800.0 + np.cumsum(rng.normal(0.0, 15.0, (8, length)), axis=1)
    freqs, power = dsp.welch_psd(tach, hrv.RESAMPLE_HZ, length)
    alone = [hrv._band_powers(freqs, power[i:i + 1])[0] for i in range(8)]
    for i, row in enumerate(alone):
        # Each band is np.trapezoid of its bins.
        want = [np.trapezoid(power[i, band], freqs[band]) for band in (
            (freqs >= f_lo) & (freqs <= f_hi)
            for f_lo, f_hi in (hrv.VLF_BAND, hrv.LF_BAND, hrv.HF_BAND))]
        assert_bit_equal(row, np.array(want))
    for rows in range(1, 9):
        assert_bit_equal(hrv._band_powers(freqs, power[:rows]), np.array(alone[:rows]))


def test_build_matrix_logs_drop_reasons(caplog):
    rr = degraded_rr()
    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(62.0, 5.0)
    with caplog.at_level(logging.INFO, logger="ppgstress.windows"):
        m = windows.build_matrix(ds, spec, prepared={"d1": dataclasses.replace(rr)})
    _, _, reasons = scalar_rows(ds, spec, {"d1": rr})
    dropped = Counter(r for r in reasons if r)
    assert m.n_rows == len(reasons) - sum(dropped.values())
    expected = ", ".join(f"{r}: {c}" for r, c in sorted(dropped.items()))
    assert (f"subject d1: dropped {sum(dropped.values())} unusable windows "
            f"({expected})") in caplog.messages


def test_build_matrix_keeps_only_finite_rows():
    # The degraded trace's refused windows are nan rows and its flagged ones
    # hold nan: every such row is dropped, and every kept row is finite.
    rr = degraded_rr()
    ds = degraded_dataset(rr)
    spec = windows.WindowSpec(62.0, 5.0)
    X, reasons = check_degraded(dataclasses.replace(rr), 62.0)[2:]
    finite = np.isfinite(X).all(axis=1)
    assert not finite.all() and reasons[~finite].any(axis=1).all()
    m = windows.build_matrix(ds, spec, prepared={"d1": dataclasses.replace(rr)})
    assert np.isfinite(m.X).all()
    assert m.n_rows == np.count_nonzero(~reasons.any(axis=1))


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


@st.composite
def edge_rows(draw):
    """A batch of RR-like rows whose values sit on, or one ulp beside, their
    8 bin edges, computed either as np.histogram's linspace or as
    lo + k * width / 8; zero widths give constant rows."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(st.floats(300.0, 1500.0))
        hi = lo + draw(st.sampled_from([0.0, 0.7, 400.0]) | st.floats(1e-3, 3000.0))
        grid = (np.linspace(lo, hi, hrv.SHANEN_BINS + 1) if draw(st.booleans())
                else lo + np.arange(hrv.SHANEN_BINS + 1) * ((hi - lo) / hrv.SHANEN_BINS))
        picks = draw(st.lists(st.tuples(st.integers(0, hrv.SHANEN_BINS),
                                        st.sampled_from([-1.0, 0.0, 1.0])),
                              min_size=2, max_size=40))
        x = np.array([np.nextafter(grid[k], grid[k] + step) if step else grid[k]
                      for k, step in picks])
        rows.append(np.clip(np.r_[lo, hi, x], lo, hi))
    return rows


@given(edge_rows())
@settings(max_examples=150, deadline=None)
def test_bin_counts_match_np_histogram_on_edges(rows):
    want = np.array([scalar_hrv.histogram_counts(r) for r in rows])
    np.testing.assert_array_equal(hrv._bin_counts(*sorted_rows(rows)), want)


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
    X, reasons = hrv.window_features(rr, [10.0], [90.0])
    assert [list(feats.values.values())] == X.tolist()
    assert feats.flags == () and not reasons.any()


def test_scalar_window_times_are_one_window():
    # Scalar times made 0-d bounds, and the batch loop failed on them with
    # an IndexError.
    rr = degraded_rr()
    X, reasons = hrv.window_features(rr, 10.0, 90.0)
    want_X, want_reasons = hrv.window_features(rr, [10.0], [90.0])
    assert_bit_equal(X, want_X)
    assert_bit_equal(reasons, want_reasons)
