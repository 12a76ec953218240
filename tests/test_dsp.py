import time

import numpy as np
import pytest
from scipy import signal

from ppgstress import dsp
from ppgstress.errors import DataError, ValidationError

FS = 100.0


@pytest.fixture(scope="module")
def cascade():
    return dsp.design_butter_bandpass(3, 0.5, 8.0, FS)


class TestDesign:
    def test_band_edges_validated(self):
        with pytest.raises(ValidationError):
            dsp.design_butter_bandpass(3, 8.0, 0.5, FS)
        with pytest.raises(ValidationError):
            dsp.design_butter_bandpass(3, 0.5, 60.0, FS)
        with pytest.raises(ValidationError):
            dsp.design_butter_bandpass(0, 0.5, 8.0, FS)

    def test_three_biquads_for_order_three(self, cascade):
        assert cascade.sos.shape == (3, 6)

    @pytest.mark.acceptance
    def test_zero_at_dc_and_nyquist(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [0.0, FS / 2]))
        assert h[0] == 0.0
        assert h[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.acceptance
    def test_passband_gain(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [2.0]))[0]
        assert 0.98 <= h <= 1.0

    @pytest.mark.acceptance
    def test_minus_3db_at_both_edges(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [0.5, 8.0]))
        assert h == pytest.approx(2 ** -0.5, rel=0.01)

    def test_sections_stable(self, cascade):
        for sec in cascade.sos:
            assert np.all(np.abs(np.roots([1.0, sec[4], sec[5]])) < 1.0)

    @pytest.mark.parametrize("order,low", [(3, 1e-8), (12, 1e-6)])
    def test_unstable_design_near_dc_refused(self, order, low):
        # Valid edges, but the rounded sections put a pole just outside the
        # unit circle (|p| - 1 is about 1e-8 at fs = 2000 Hz).
        with pytest.raises(DataError, match=f"order-{order}.*{low:g}-8 Hz"):
            dsp.design_butter_bandpass(order, low, 8.0, 2000.0)


# Orders 1-8 at 25-1000 Hz, for the pipeline's band and for edges close to
# 0 and fs/2, where the poles crowd the unit circle.
ORACLE_DESIGNS = [(order, fs, low, high)
                  for order in range(1, 9)
                  for fs in (25.0, 100.0, 250.0, 1000.0)
                  for low, high in ((0.5, 8.0), (0.1, 3.0), (0.04, 0.4 * fs))]


def sections_zpk(sos):
    """Zeros, poles and gain of a cascade, section by section."""
    zeros = np.concatenate([np.roots(sec[:3]) for sec in sos])
    poles = np.concatenate([np.roots(sec[3:]) for sec in sos])
    return zeros, poles, np.prod(sos[:, 0])


def zpk_close(got, want, tol):
    """Every root of `got` lies within tol of a root of `want`, and back."""
    dist = np.abs(np.subtract.outer(got, want))
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


@pytest.mark.parametrize("order,fs,low,high", ORACLE_DESIGNS)
def test_design_matches_scipy_butter(order, fs, low, high):
    got = dsp.design_butter_bandpass(order, low, high, fs)
    want = signal.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")
    assert got.sos.shape == want.shape == (order, 6)
    z1, p1, k1 = sections_zpk(got.sos)
    z2, p2, k2 = sections_zpk(want)
    assert zpk_close(z1, z2, 1e-6)  # multiple zeros at z = +-1: sqrt(eps) apart
    assert zpk_close(p1, p2, 1e-12)
    assert k1 == pytest.approx(k2, rel=1e-12)
    freqs = np.linspace(0.0, fs / 2, 257)
    np.testing.assert_allclose(dsp.freq_response(got, freqs),
                               dsp.freq_response(dsp.BiquadCascade(want, fs), freqs),
                               rtol=0, atol=1e-12)


def test_designs_cached_and_read_only():
    a = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)
    assert dsp.design_butter_bandpass(3, 0.5, 8.0, FS) is a
    assert a.blocks is a.blocks
    with pytest.raises(ValueError):
        a.sos[0, 0] = 1.0


@pytest.mark.parametrize("n", [8, 9, 31, 32, 33, 64, 1000, 4097])
def test_hann_matches_scipy_window(n):
    np.testing.assert_array_max_ulp(dsp.hann(n), signal.get_window("hann", n),
                                    maxulp=4)


def sosfilt_filtfilt(sos, x, pad):
    """filtfilt's definition, with scipy's sequential DF-II-T sections."""
    xp = np.pad(x, pad, mode="reflect")
    y = signal.sosfilt(sos, xp)
    y = signal.sosfilt(sos, y[::-1])[::-1]
    return y[pad:len(y) - pad]


@pytest.mark.parametrize("order,fs,low,high", ORACLE_DESIGNS)
def test_filtfilt_matches_sosfilt(order, fs, low, high):
    # Within 1e-10 of the output's peak. The largest gap over these cases is
    # 8.8e-12 (order 5, 0.1-3 Hz at 1000 Hz, n = 3001), and it is sosfilt's:
    # against a long-double sequential filter, sosfilt is off by 8.8e-12 of
    # the peak there and filtfilt by 8e-15.
    cascade = dsp.design_butter_bandpass(order, low, high, fs)
    rng = np.random.default_rng(order)
    for n in (9 * order + 1, 100, 3001):  # blocks: one partial to many
        x = rng.normal(size=n) + 5.0 * np.sin(2 * np.pi * 1.2 * np.arange(n) / fs)
        want = sosfilt_filtfilt(np.array(cascade.sos), x, 9 * order)
        got = dsp.filtfilt(cascade, x)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("tail", [0, 1, dsp.BLOCK - 1])
def test_filtfilt_any_tail_of_zeros(tail):
    # The padded signal fills its last block, or leaves 1 or BLOCK - 1 zeros
    # after it, whose responses each pass's reversed write puts in the room
    # before the samples.
    cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)
    n = 40 * dsp.BLOCK - 2 * 27 - tail
    x = np.random.default_rng(tail).normal(size=n)
    want = sosfilt_filtfilt(np.array(cascade.sos), x, 27)
    got = dsp.filtfilt(cascade, x)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("macs", [1, 5000])
def test_filtfilt_independent_of_gemm_split(monkeypatch, macs):
    # One block per GEMM, or a few blocks with zero padding after the last.
    cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)
    x = np.random.default_rng(6).normal(size=2000)
    want = dsp.filtfilt(cascade, x)
    monkeypatch.setattr(dsp, "GEMM_MACS", macs)
    np.testing.assert_allclose(dsp.filtfilt(cascade, x), want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


def test_filtfilt_double_pole_section():
    # a2 == (a1 / 2)^2 exactly: a double pole at 0.5 keeps its DF-II-T states.
    sos = np.array([[0.2, 0.1, -0.3, 1.0, -1.0, 0.25],
                    [1.0, 0.0, -1.0, 1.0, -1.2, 0.5]])
    cascade = dsp.BiquadCascade(sos, FS)
    x = np.random.default_rng(5).normal(size=500)
    want = sosfilt_filtfilt(sos, x, 18)
    np.testing.assert_allclose(dsp.filtfilt(cascade, x), want, rtol=0,
                               atol=1e-12 * np.max(np.abs(want)))


class TestFiltfilt:
    @pytest.mark.acceptance
    def test_passband_tone_amplitude_and_lag(self):
        t = np.arange(0, 30, 1 / FS)
        x = np.sin(2 * np.pi * 2.0 * t)
        t0 = time.perf_counter()
        # The uncached design, so the bound covers designing the cascade too.
        cascade = dsp.design_butter_bandpass.__wrapped__(3, 0.5, 8.0, FS)
        y = dsp.filtfilt(cascade, x)
        assert time.perf_counter() - t0 < 1.0
        core = slice(500, len(t) - 500)
        assert np.max(np.abs(y[core])) == pytest.approx(1.0, rel=0.05)
        # zero phase: cross-correlation peaks at zero lag
        lags = np.arange(-20, 21)
        xc = [np.dot(y[core], np.roll(x, l)[core]) for l in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_dc_rejection(self, cascade):
        y = dsp.filtfilt(cascade, np.full(3000, 5.0))
        # the 0.5 Hz edge decays slowly; the tail past the transient is clean
        assert np.max(np.abs(y[1500:])) < 1e-6

    @pytest.mark.acceptance
    def test_subband_tone_suppressed(self, cascade):
        t = np.arange(0, 120, 1 / FS)
        x = np.sin(2 * np.pi * 0.05 * t)
        y = dsp.filtfilt(cascade, x)
        h = np.abs(dsp.freq_response(cascade, [0.05]))[0]
        assert h <= 0.01
        # zero-phase attenuation is |H|^2 of the single-pass design
        expected = h ** 2
        assert np.max(np.abs(y[2000:-2000])) < 0.01
        assert np.max(np.abs(y[2000:-2000])) < 2 * expected + 1e-6

    def test_linearity(self, cascade):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2000)
        np.testing.assert_allclose(dsp.filtfilt(cascade, 3.5 * x),
                                   3.5 * dsp.filtfilt(cascade, x),
                                   rtol=1e-12, atol=1e-12)

    def test_impulse_response_decays(self, cascade):
        x = np.zeros(6000)
        x[1000] = 1.0
        y = dsp.filtfilt(cascade, x)
        assert np.max(np.abs(y[4000:])) < 1e-9  # 30 s past the impulse

    def test_output_length_matches_input(self, cascade):
        assert len(dsp.filtfilt(cascade, np.ones(500))) == 500

    def test_too_short_input(self, cascade):
        with pytest.raises(DataError):
            dsp.filtfilt(cascade, np.ones(20))


class TestWelch:
    def test_sinusoid_peak_location(self):
        t = np.arange(0, 300, 1 / 4.0)
        x = np.sin(2 * np.pi * 0.1 * t)
        freqs, power = dsp.welch_psd(x, 4.0, 256)
        assert abs(freqs[np.argmax(power)] - 0.1) <= 4.0 / 256

    def test_constant_input_no_power(self):
        _, power = dsp.welch_psd(np.full(1024, 3.0), 4.0, 256)
        assert np.all(power < 1e-12)

    def test_white_noise_parseval(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, 65536)
        freqs, power = dsp.welch_psd(x, 4.0, 256)
        total = np.trapezoid(power, freqs)
        assert 0.8 <= total <= 1.2

    def test_grid_spacing(self):
        freqs, _ = dsp.welch_psd(np.random.default_rng(1).normal(size=2048), 4.0, 256)
        assert freqs[0] == 0.0
        np.testing.assert_allclose(np.diff(freqs), 4.0 / 256)

    def test_nonnegative(self):
        _, power = dsp.welch_psd(np.random.default_rng(2).normal(size=2048), 4.0, 128)
        assert np.all(power >= 0)

    def test_stack_rows_match_single_calls(self):
        x = np.random.default_rng(3).normal(size=(5, 700))
        freqs, power = dsp.welch_psd(x, 4.0, 256)
        assert power.shape == (5, len(freqs))
        for row, row_power in zip(x, power):
            np.testing.assert_array_equal(row_power, dsp.welch_psd(row, 4.0, 256)[1])

    # Odd and even lengths, one segment to many, leftover samples; `overlap`
    # is the fraction scipy is given, whose half overlap welch_psd computes.
    @pytest.mark.parametrize("seg,n,overlap", [(237, 237, 0.5), (240, 479, 0.5),
                                               (256, 384, 0.5), (256, 1000, 0.5),
                                               (251, 900, 0.5)])
    def test_matches_scipy_welch(self, seg, n, overlap):
        x = np.random.default_rng(seg + n).normal(800.0, 50.0, (4, n))
        got_freqs, got_power = dsp.welch_psd(x, 4.0, seg)
        freqs, power = signal.welch(x, fs=4.0, window="hann", nperseg=seg,
                                    noverlap=int(seg * overlap),
                                    detrend="constant", scaling="density")
        np.testing.assert_array_equal(got_freqs, freqs)
        np.testing.assert_allclose(got_power, power, rtol=0, atol=1e-12 * power.max())

    def test_short_sequence_rejected(self):
        with pytest.raises(DataError):
            dsp.welch_psd(np.ones(100), 4.0, 256)
        with pytest.raises(DataError):
            dsp.welch_psd(np.ones((3, 100)), 4.0, 256)
