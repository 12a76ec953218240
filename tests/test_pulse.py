import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_pulse
from conftest import assert_bit_equal
from ppgstress import dsp, io, pulse, windows
from ppgstress.errors import DataError

FS = 100.0


def filtered_synth(rr_plan, noise=0.0, seed=0):
    trace = io.synth_ppg(rr_plan, FS, noise, seed=seed)
    cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)
    return dsp.filtfilt(cascade, trace.samples)


class TestDetectPeaks:
    @pytest.mark.acceptance
    def test_recovers_steady_beats(self):
        x = filtered_synth([1000.0] * 120)
        peaks = pulse.detect_peaks(x, FS)
        assert len(peaks) == 120  # no missed or extra beats
        gaps = np.diff(peaks)
        assert np.all(np.abs(gaps - 1.0) < 0.005)
        assert np.mean(np.abs(pulse.to_rr(peaks).rr_ms - 1000.0)) < 5.0

    def test_alternating_rr_plan(self):
        plan = [985.0, 1015.0] * 60
        x = filtered_synth(plan)
        peaks = pulse.detect_peaks(x, FS)
        gaps = np.diff(peaks)[: len(plan) - 1]
        expected = np.array(plan[1:]) / 1000.0
        assert np.all(np.abs(gaps - expected) < 1.0 / FS)

    def test_all_zero_signal(self):
        assert len(pulse.detect_peaks(np.zeros(2000), FS)) == 0

    def test_slow_lobe_gives_no_peaks(self):
        # One positive 10 s half-sine: the short average never clears the
        # long one plus its offset, so no block is left to pick from.
        t = np.arange(1000) / FS
        assert len(pulse.detect_peaks(np.sin(np.pi * t / 10.0), FS)) == 0

    @pytest.mark.acceptance
    def test_noise_robustness(self):
        plan = [1000.0] * 120
        x = filtered_synth(plan, noise=0.1, seed=3)
        peaks = pulse.detect_peaks(x, FS)
        truth = np.cumsum(plan) / 1000.0
        dist = np.min(np.abs(truth[None, :] - peaks[:, None]), axis=0) * 1000
        assert np.mean(dist < 50.0) >= 0.98

    def test_amplitude_scale_invariance(self):
        x = filtered_synth([900.0] * 60)
        np.testing.assert_allclose(pulse.detect_peaks(x, FS),
                                   pulse.detect_peaks(7.3 * x, FS))

    def test_time_shift_invariance(self):
        x = filtered_synth([1000.0] * 60)
        k = 37
        shifted = np.r_[np.zeros(k), x]
        a = pulse.detect_peaks(x, FS)
        b = pulse.detect_peaks(shifted, FS)
        # interior peaks only: edge effects allowed at the boundaries
        np.testing.assert_allclose(b[1:-1], a[1:-1] + k / FS, atol=1e-9)

    def test_too_short_signal(self):
        with pytest.raises(DataError):
            pulse.detect_peaks(np.ones(100), FS)


@pytest.mark.parametrize("fs", [100.0, 250.0])
def test_dicrotic_notch_keeps_one_peak_per_beat(fs):
    plan = 850.0 + np.random.default_rng(11).uniform(-40.0, 40.0, 300)
    trace = io.synth_ppg(plan, fs, 0.02, seed=2, dicrotic=True)
    # The flag draws the second lobe: it alone separates the two traces.
    lobes = trace.samples - io.synth_ppg(plan, fs, 0.02, seed=2).samples
    at = np.round((np.cumsum(plan) / 1000.0 + io.DICROTIC_DELAY_S) * fs)
    assert np.all(lobes[at.astype(int)] > 0.95 * io.DICROTIC_AMPLITUDE)
    cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, fs)
    peaks = pulse.detect_peaks(dsp.filtfilt(cascade, trace.samples), fs)
    assert len(peaks) == 300
    rr = pulse.to_rr(peaks)
    assert rr.n_rejected == 0
    assert np.max(np.abs(rr.rr_ms - plan[1:])) <= 5.0


fs_range = st.sampled_from([25.0, 100.0, 1000.0]) | st.floats(25.0, 1000.0)


@st.composite
def block_signals(draw):
    """(x, above, fs): runs of `above` about MIN_BLOCK_S wide, so narrow runs
    precede wide ones, with gaps under REFRACTORY_S that chain refractory
    conflicts, runs that may touch the first or last sample, and x rounded
    into plateaus, so a run's maximum may be tied."""
    fs = draw(fs_range)
    min_width = int(round(pulse.MIN_BLOCK_S * fs))
    above = [False] * draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 12))):
        above += [True] * draw(st.integers(max(1, min_width - 2), min_width + 2)
                               | st.integers(1, 3 * min_width))
        above += [False] * draw(st.integers(1, int(pulse.REFRACTORY_S * fs * 1.5)))
    if draw(st.booleans()):
        while not above[-1]:
            above.pop()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.arange(len(above)) / fs
    x = np.sin(2 * np.pi * draw(st.floats(0.5, 3.0)) * t) + rng.normal(
        0.0, draw(st.floats(0.0, 1.0)), t.size)
    return np.round(x, draw(st.integers(0, 3))), np.array(above), fs


@given(block_signals())
@settings(max_examples=300, deadline=None)
def test_pick_peaks_is_bit_equal_to_per_block_loop(signal):
    x, above, fs = signal
    assert_bit_equal(pulse._pick_peaks(x, above, fs),
                     scalar_pulse.pick_peaks(x, above, fs))


@given(fs_range, st.floats(0.0, 1.0), st.sampled_from([None, 1, 2]),
       st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_detect_peaks_is_bit_equal_to_per_block_loop(fs, noise, decimals, seed):
    plan = 850.0 + np.random.default_rng(seed).uniform(-150.0, 150.0, 12)
    trace = io.synth_ppg(plan, fs, noise, seed=seed)
    x = dsp.filtfilt(dsp.design_butter_bandpass(3, 0.5, 8.0, fs), trace.samples)
    if decimals is not None:
        x = np.round(x, decimals)
    assert_bit_equal(pulse.detect_peaks(x, fs), scalar_pulse.detect_peaks(x, fs))


@pytest.mark.parametrize("n,w", [(3000, 1), (3000, 2), (3000, 11), (3000, 67),
                                 (3000, 667), (667, 667), (668, 667), (12, 11),
                                 (12, 12), (1, 1)])
def test_moving_averages_match_convolve(n, w):
    # Spikes and runs of zeros, as in a clipped, squared pulse.
    rng = np.random.default_rng(n + w)
    y = np.maximum(rng.normal(size=n), 0.0) ** 2 * 10.0 ** rng.integers(-3, 3, n)
    want = np.convolve(y, np.ones(w) / w, mode="same")
    c = np.empty(n + 2 * w + 1)  # y from c[w + 1] on, and w floats of room after it
    c[w + 1:w + 1 + n] = y
    got, = pulse._moving_averages(c, (w,))
    # The running sum's bound and the convolution's, from the docstring.
    u = np.finfo(float).eps / 2
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=u * (2 * n * y.sum() / w + (w + 2) * y.max()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noise", [0.02, 0.2])
@pytest.mark.parametrize("fs", [25.0, 100.0, 250.0, 1000.0])
def test_detect_peaks_is_bit_equal_to_convolve_reference_on_cohorts(fs, noise, seed):
    ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, fs=fs, span_s=60.0,
                                            noise_sigma=noise, seed=seed))
    cascade = dsp.design_butter_bandpass(windows.FILTER_ORDER, *windows.BAND_HZ, fs)
    for trace in ds:
        x = dsp.filtfilt(cascade, trace.samples)
        assert_bit_equal(pulse.detect_peaks(x, fs), scalar_pulse.detect_peaks(x, fs))


def test_detect_peaks_holds_three_trace_lengths():
    # The clipped square is summed in place and the averages are freed before
    # the peaks are picked: a fresh array for the square took 4.0 lengths.
    trace, = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=0))
    cascade = dsp.design_butter_bandpass(windows.FILTER_ORDER, *windows.BAND_HZ, trace.fs)
    x = dsp.filtfilt(cascade, trace.samples)
    assert len(x) == 84090
    pulse.detect_peaks(x, trace.fs)  # warm: first calls allocate numpy's caches
    tracemalloc.start()
    try:
        pulse.detect_peaks(x, trace.fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * x.nbytes


class TestToRr:
    def test_clean_intervals(self):
        rr = pulse.to_rr([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(rr.rr_ms, [1000.0, 1000.0, 1000.0])
        assert rr.n_rejected == 0

    def test_gap_dropped_not_merged(self):
        rr = pulse.to_rr([0.0, 1.0, 3.5, 4.5])
        np.testing.assert_allclose(rr.rr_ms, [1000.0, 1000.0])
        assert rr.n_rejected == 1
        np.testing.assert_array_equal(rr.rr_times_s, [1.0, 4.5])
        np.testing.assert_array_equal(rr.rejected_times_s, [3.5])

    def test_two_peaks_error(self):
        with pytest.raises(DataError):
            pulse.to_rr([0.0, 1.0])

    def test_insufficient_survivors(self):
        with pytest.raises(DataError, match="insufficient beats"):
            pulse.to_rr([0.0, 5.0, 10.0, 15.0])


class TestRrSeries:
    PEAKS = np.array([0.0, 0.8, 1.6, 4.0, 4.8])

    @pytest.mark.parametrize("n_times", [2, 4])
    def test_interval_times_of_another_length_refused(self, n_times):
        times = 0.8 * np.arange(1, n_times + 1)
        with pytest.raises(DataError, match=f"3 intervals but {n_times} interval times"):
            pulse.RrSeries(self.PEAKS, np.full(3, 800.0), times)

    @pytest.mark.parametrize("field", ["peak_times_s", "rr_times_s", "rejected_times_s"])
    @pytest.mark.parametrize("fault", ["reversed", "repeated"])
    def test_times_not_strictly_increasing_refused(self, field, fault):
        times = dict(peak_times_s=self.PEAKS, rr_times_s=np.array([0.8, 1.6, 4.8]),
                     rejected_times_s=np.array([4.0, 4.4]))
        t = times[field]
        times[field] = t[::-1] if fault == "reversed" else np.r_[t[:1], t[:-1]]
        with pytest.raises(DataError, match="peak times must be strictly increasing"):
            pulse.RrSeries(times["peak_times_s"], np.full(3, 800.0),
                           times["rr_times_s"], times["rejected_times_s"])


class TestSliceWindow:
    def test_terminating_peak_rule(self):
        rr = pulse.to_rr([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        w = pulse.slice_window(rr, 2.0, 4.0)
        # intervals ending at 2.0 and 3.0 s fall in [2, 4)
        np.testing.assert_allclose(w.rr_times_s, [2.0, 3.0])
        assert len(w.rr_ms) == 2

    def test_bounds_match_half_open_masks(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.choice(np.arange(0.0, 100.0, 0.5), 120, replace=False))
        starts = rng.choice(np.arange(-5.0, 105.0, 0.5), 50)
        ends = starts + rng.choice([0.0, 0.5, 7.0, 30.0], 50)
        lo, hi = pulse.window_bounds(times, starts, ends)
        for s, e, a, b in zip(starts, ends, lo, hi):
            inside = np.flatnonzero((times >= s) & (times < e))
            np.testing.assert_array_equal(inside, np.arange(a, b))


class TestCondMeanRecovery:
    def test_mean_hr_within_1bpm(self):
        plan = [750.0] * 160
        x = filtered_synth(plan)
        peaks = pulse.detect_peaks(x, FS)
        duration = peaks[-1] - peaks[0]
        bpm = 60.0 * (len(peaks) - 1) / duration
        assert abs(bpm - 60000.0 / 750.0) < 1.0
