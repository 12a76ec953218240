"""Acceptance gate: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import modulated_rr, one_fold
from ppgstress import dsp, evaluate, hrv, io, models, pulse, windows

FS = 100.0


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_1_filter_correctness():
    with criterion(1, "Butterworth band-pass magnitude and zero-phase lag"):
        t0 = time.perf_counter()
        cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)
        h = np.abs(dsp.freq_response(cascade, [0.0, 0.05, 0.5, 2.0, FS / 2]))
        assert h[0] == 0.0 and h[4] == pytest.approx(0.0, abs=1e-12)
        assert h[1] <= 0.01
        assert h[2] == pytest.approx(2 ** -0.5, rel=0.01)
        assert h[3] >= 0.98
        t = np.arange(0, 30, 1 / FS)
        x = np.sin(2 * np.pi * 2.0 * t)
        y = dsp.filtfilt(cascade, x)
        core = slice(500, len(t) - 500)
        lags = np.arange(-5, 6)
        xc = [np.dot(y[core], np.roll(x, l)[core]) for l in lags]
        assert abs(lags[int(np.argmax(xc))]) < 1
        assert time.perf_counter() - t0 < 1.0


def test_2_peak_rr_recovery():
    with criterion(2, "RR plan recovery, clean and at 10% amplitude noise"):
        plan = [1000.0] * 120
        truth = np.cumsum(plan) / 1000.0
        cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, FS)

        clean = dsp.filtfilt(cascade, io.synth_ppg(plan, FS).samples)
        peaks = pulse.detect_peaks(clean, FS)
        assert len(peaks) == len(truth)  # no missed or extra beats
        rr = pulse.to_rr(peaks)
        assert np.mean(np.abs(rr.rr_ms - 1000.0)) < 5.0

        noisy = dsp.filtfilt(
            cascade, io.synth_ppg(plan, FS, noise_sigma=0.1, seed=3).samples)
        got = pulse.detect_peaks(noisy, FS)
        dist = np.min(np.abs(truth[None, :] - got[:, None]), axis=0) * 1000
        assert np.mean(dist < 50.0) >= 0.98


def test_3_hrv_oracle_equivalence():
    with criterion(3, "catalog features vs direct-definition oracle, "
                      "planted-band spectra, Poincare identity"):
        rng = np.random.default_rng(123)
        for _ in range(100):
            rr = rng.uniform(800, 1200, int(rng.integers(50, 200)))
            got = {**hrv.time_domain(rr), **hrv.nonlinear(rr).values}
            d = np.diff(rr)
            mean = statistics.fmean(rr)
            sdnn = statistics.stdev(rr)
            rmssd = float(np.sqrt(np.mean(d ** 2)))
            med = statistics.median(rr)
            mad = 1.4826 * statistics.median([abs(v - med) for v in rr])
            var_p = statistics.pvariance(list(rr))
            var_d = statistics.pvariance(list(d))
            sd1 = (0.5 * var_d) ** 0.5
            sd2 = (2 * var_p - 0.5 * var_d) ** 0.5
            expected = {
                "MeanNN": mean, "SDNN": sdnn, "RMSSD": rmssd,
                "SDSD": statistics.stdev(d), "CVNN": sdnn / mean,
                "CVSD": rmssd / mean, "MedianNN": med, "MadNN": mad,
                "MCVNN": mad / med,
                "IQRNN": float(np.percentile(rr, 75) - np.percentile(rr, 25)),
                "pNN20": 100.0 * np.count_nonzero(np.abs(d) > 20) / d.size,
                "pNN50": 100.0 * np.count_nonzero(np.abs(d) > 50) / d.size,
                "MinNN": float(rr.min()), "MaxNN": float(rr.max()),
                "SD1": sd1, "SD2": sd2, "SD1SD2": sd1 / sd2, "CSI": sd2 / sd1,
            }
            for name, v in expected.items():
                assert got[name] == pytest.approx(v, rel=1e-9), name
            assert got["SD1"] ** 2 + got["SD2"] ** 2 \
                == pytest.approx(2 * var_p, rel=1e-9)
        assert hrv.frequency_domain(modulated_rr(0.1), 300.0).values["LFn"] > 0.9
        assert hrv.frequency_domain(modulated_rr(0.25), 300.0).values["HFn"] > 0.9


def test_4_selection_correctness():
    with criterion(4, "ANOVA F hand value, affine invariance, tie ordering"):
        def mk(cols, labels):
            X = np.array(cols, dtype=float).T
            return windows.FeatureMatrix(
                ("s",) * X.shape[0], np.array(labels), np.zeros(X.shape[0]),
                X, tuple(f"f{i}" for i in range(X.shape[1])))

        labels = [0, 0, 0, 1, 1, 1]
        m = mk([[1, 2, 3, 4, 5, 6]], labels)
        assert windows.anova_f(m).scores["f0"] == pytest.approx(13.5, rel=1e-12)

        col = np.random.default_rng(0).normal(size=6)
        f1 = windows.anova_f(mk([col], labels)).scores["f0"]
        f2 = windows.anova_f(mk([3.0 * col - 11.0], labels)).scores["f0"]
        assert f2 == pytest.approx(f1, rel=1e-9)

        tied = mk([[1, 2, 3, 4, 5, 6]] * 3, labels)
        assert windows.anova_f(tied).ranked == ("f0", "f1", "f2")


def test_5_classifier_sanity():
    with criterion(5, "LDA separability and symmetry, SGD determinism and loss"):
        rng = np.random.default_rng(0)
        X = np.r_[rng.normal(-2, 0.5, (200, 1)), rng.normal(2, 0.5, (200, 1))]
        y = np.r_[np.zeros(200), np.ones(200)].astype(int)
        lda = models.lda_fit(X, y)
        assert np.mean((lda.predict_proba(X) >= 0.5) == y) >= 0.99

        a = rng.normal(1.5, 0.5, (100, 2))
        Xm = np.r_[a, -a]
        ym = np.r_[np.zeros(100), np.ones(100)].astype(int)
        sym = models.lda_fit(Xm, ym)
        assert sym.predict_proba(np.zeros((1, 2)))[0] \
            == pytest.approx(0.5, abs=1e-9)

        X2 = np.c_[X, rng.normal(size=(400, 1))]
        s1 = models.sgd_logistic_fit(X2, y, one_fold(X2), seed=4).models[0]
        s2 = models.sgd_logistic_fit(X2, y, one_fold(X2), seed=4).models[0]
        assert np.array_equal(s1.weights, s2.weights) and s1.bias == s2.bias
        losses = np.array(s1.loss_per_epoch)
        assert np.all(losses[1:] <= losses[:-1] * 1.05)


def test_6_u_test_exactness():
    with criterion(6, "exact U enumeration and U symmetry"):
        r = evaluate.mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert r.method == "exact"
        assert r.u == 0 and r.p_two_tailed == pytest.approx(0.1, rel=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 20))
            b = rng.normal(size=rng.integers(2, 20))
            pooled = np.concatenate([a, b])
            from scipy.stats import rankdata
            ranks = rankdata(pooled)
            u_ab = ranks[:len(a)].sum() - len(a) * (len(a) + 1) / 2
            u_ba = ranks[len(a):].sum() - len(b) * (len(b) + 1) / 2
            assert u_ab + u_ba == pytest.approx(len(a) * len(b), abs=1e-9)


def test_7_end_to_end_pipeline(cohort16, matrix16):
    with criterion(7, "16-subject LOSO >= 0.90, shuffled controls at chance, "
                      "SUDs p < 1e-5"):
        t0 = time.perf_counter()
        rep = evaluate.loso_matrix(matrix16, k=35, model_kind="lda", seed=0)
        assert len(rep.folds) == 16
        assert rep.mean_accuracy >= 0.90

        shuffled = evaluate.shuffle_labels(matrix16, seed=13)
        chance = evaluate.loso_matrix(shuffled, k=35, model_kind="lda", seed=0)
        assert 0.40 <= chance.mean_accuracy <= 0.60

        suds = evaluate.suds_report(cohort16)
        assert suds.stressful["median"] > suds.relaxing["median"]
        assert suds.utest.p_two_tailed < 1e-5
        assert time.perf_counter() - t0 < 300.0


def test_8_window_sweep_artifact(tmp_path):
    with criterion(8, "7-row deterministic window-sweep CSV"):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=4, seed=21))
        rows = evaluate.sweep_windows(ds, k=35)
        again = evaluate.sweep_windows(ds, k=35)
        assert rows == again
        assert [r["window_s"] for r in rows] \
            == [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0]
        path = tmp_path / "sweep.csv"
        with open(path, "w") as f:
            f.write("window_s,mean_accuracy,pooled_accuracy\n")
            for r in rows:
                f.write(f"{r['window_s']:g},{r['mean_accuracy']:.6f},"
                        f"{r['pooled_accuracy']:.6f}\n")
        assert len(path.read_text().splitlines()) == 8
