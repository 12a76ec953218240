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
        assert cascade.n_sections == 3

    def test_zero_at_dc_and_nyquist(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [0.0, FS / 2]))
        assert h[0] == pytest.approx(0.0, abs=1e-12)
        assert h[1] == pytest.approx(0.0, abs=1e-12)

    def test_passband_gain(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [2.0]))[0]
        assert 0.98 <= h <= 1.0

    def test_minus_3db_at_both_edges(self, cascade):
        h = np.abs(dsp.freq_response(cascade, [0.5, 8.0]))
        assert h == pytest.approx(2 ** -0.5, rel=0.01)

    def test_sections_stable(self, cascade):
        for sec in cascade.sos:
            assert np.all(np.abs(np.roots([1.0, sec[4], sec[5]])) < 1.0)

    @pytest.mark.parametrize("order,low", [(3, 1e-8), (12, 1e-6)])
    def test_unstable_design_near_dc_refused(self, order, low):
        # Valid edges, but scipy's sections put a pole just outside the
        # unit circle (|p| - 1 is about 1e-8 at fs = 2000 Hz).
        with pytest.raises(DataError, match=f"order-{order}.*{low:g}-8 Hz"):
            dsp.design_butter_bandpass(order, low, 8.0, 2000.0)


class TestFiltfilt:
    def test_passband_tone_amplitude_and_lag(self, cascade):
        t = np.arange(0, 30, 1 / FS)
        x = np.sin(2 * np.pi * 2.0 * t)
        y = dsp.filtfilt(cascade, x)
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

    def test_subband_tone_suppressed(self, cascade):
        t = np.arange(0, 120, 1 / FS)
        x = np.sin(2 * np.pi * 0.05 * t)
        y = dsp.filtfilt(cascade, x)
        # zero-phase attenuation is |H|^2 of the single-pass design
        expected = np.abs(dsp.freq_response(cascade, [0.05]))[0] ** 2
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
        psd = dsp.welch_psd(x, 4.0, 256)
        assert abs(psd.freqs[np.argmax(psd.power)] - 0.1) <= 4.0 / 256

    def test_constant_input_no_power(self):
        psd = dsp.welch_psd(np.full(1024, 3.0), 4.0, 256)
        assert np.all(psd.power < 1e-12)

    def test_white_noise_parseval(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, 65536)
        psd = dsp.welch_psd(x, 4.0, 256)
        total = np.trapezoid(psd.power, psd.freqs)
        assert 0.8 <= total <= 1.2

    def test_grid_spacing(self):
        psd = dsp.welch_psd(np.random.default_rng(1).normal(size=2048), 4.0, 256)
        assert psd.freqs[0] == 0.0
        np.testing.assert_allclose(np.diff(psd.freqs), 4.0 / 256)

    def test_nonnegative(self):
        psd = dsp.welch_psd(np.random.default_rng(2).normal(size=2048), 4.0, 128)
        assert np.all(psd.power >= 0)

    def test_stack_rows_match_single_calls(self):
        x = np.random.default_rng(3).normal(size=(5, 700))
        psd = dsp.welch_psd(x, 4.0, 256)
        assert psd.power.shape == (5, len(psd.freqs))
        for row, power in zip(x, psd.power):
            np.testing.assert_array_equal(power, dsp.welch_psd(row, 4.0, 256).power)

    # Odd and even lengths, one segment to many, leftover samples; `overlap`
    # is the fraction scipy is given, whose half overlap welch_psd computes.
    @pytest.mark.parametrize("seg,n,overlap", [(237, 237, 0.5), (240, 479, 0.5),
                                               (256, 384, 0.5), (256, 1000, 0.5),
                                               (251, 900, 0.5)])
    def test_matches_scipy_welch(self, seg, n, overlap):
        x = np.random.default_rng(seg + n).normal(800.0, 50.0, (4, n))
        psd = dsp.welch_psd(x, 4.0, seg)
        freqs, power = signal.welch(x, fs=4.0, window="hann", nperseg=seg,
                                    noverlap=int(seg * overlap),
                                    detrend="constant", scaling="density")
        np.testing.assert_array_equal(psd.freqs, freqs)
        np.testing.assert_allclose(psd.power, power, rtol=0, atol=1e-12 * power.max())

    def test_short_sequence_rejected(self):
        with pytest.raises(DataError):
            dsp.welch_psd(np.ones(100), 4.0, 256)
        with pytest.raises(DataError):
            dsp.welch_psd(np.ones((3, 100)), 4.0, 256)
