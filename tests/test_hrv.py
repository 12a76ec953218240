import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import modulated_rr, rr_series
from ppgstress import hrv
from ppgstress.errors import DataError


# ---------------------------------------------------------------------------
# Independent direct-definition oracle (deliberately naive: plain loops and
# the statistics module, no shared code with the implementation).
# ---------------------------------------------------------------------------

def oracle_time(rr):
    rr = list(map(float, rr))
    d = [b - a for a, b in zip(rr, rr[1:])]
    mean = statistics.fmean(rr)
    sdnn = statistics.stdev(rr)
    rmssd = math.sqrt(statistics.fmean([v * v for v in d]))
    med = statistics.median(rr)
    mad = 1.4826 * statistics.median([abs(v - med) for v in rr])
    q75, q25 = np.percentile(rr, 75), np.percentile(rr, 25)
    return {
        "MeanNN": mean, "SDNN": sdnn, "RMSSD": rmssd,
        "SDSD": statistics.stdev(d), "CVNN": sdnn / mean, "CVSD": rmssd / mean,
        "MedianNN": med, "MadNN": mad, "MCVNN": mad / med,
        "IQRNN": float(q75 - q25),
        "pNN20": 100.0 * sum(abs(v) > 20 for v in d) / len(d),
        "pNN50": 100.0 * sum(abs(v) > 50 for v in d) / len(d),
        "MinNN": min(rr), "MaxNN": max(rr),
    }


def oracle_poincare(rr):
    """SD1 from the rotated Poincare scatter (x, y) = (RR_i, RR_{i+1});
    SD2 from the stated variance identity, written out with plain loops."""
    rr = list(map(float, rr))
    pairs = list(zip(rr, rr[1:]))
    u = [(y - x) / math.sqrt(2) for x, y in pairs]  # transverse axis
    mu = statistics.fmean(u)
    var_u = statistics.fmean([(w - mu) ** 2 for w in u])
    sd1 = math.sqrt(var_u)
    m = statistics.fmean(rr)
    var_rr = statistics.fmean([(v - m) ** 2 for v in rr])
    sd2 = math.sqrt(2 * var_rr - var_u)
    return sd1, sd2


def oracle_shanen(rr):
    rr = np.asarray(rr, dtype=float)
    lo, hi = rr.min(), rr.max()
    if hi == lo:
        return 0.0
    width = (hi - lo) / 8
    counts = [0] * 8
    for v in rr:
        counts[min(7, int((v - lo) / width))] += 1
    return -sum(c / len(rr) * math.log2(c / len(rr)) for c in counts if c)


def random_rr(seed, n=200):
    return np.random.default_rng(seed).uniform(800, 1200, n)


def drawn_windows(count=100):
    """Windows of 50-199 intervals, drawn in turn from one generator."""
    rng = np.random.default_rng(123)
    return [rng.uniform(800, 1200, int(rng.integers(50, 200))) for _ in range(count)]


# Five 200-interval series, then 100 shorter windows.
ORACLE_RR = ([pytest.param(random_rr(seed), id=str(seed)) for seed in range(5)]
             + [pytest.param(rr, id=f"w{i}") for i, rr in enumerate(drawn_windows())])


class TestTimeDomain:
    def test_constant_series(self):
        v = hrv.time_domain([1000.0] * 20)
        assert v["MeanNN"] == 1000.0
        for name in ("SDNN", "RMSSD", "pNN20", "CVNN", "IQRNN"):
            assert v[name] == 0.0

    def test_alternating_forced_values(self):
        v = hrv.time_domain([985.0, 1015.0] * 10)
        assert v["RMSSD"] == pytest.approx(30.0, abs=1e-12)
        assert v["pNN20"] == 100.0
        assert v["pNN50"] == 0.0

    @pytest.mark.acceptance
    @pytest.mark.parametrize("rr", ORACLE_RR)
    def test_matches_oracle(self, rr):
        got = hrv.time_domain(rr)
        want = oracle_time(rr)
        for name, v in want.items():
            assert got[name] == pytest.approx(v, rel=1e-9), name

    def test_too_few_intervals(self):
        with pytest.raises(DataError):
            hrv.time_domain([1000.0] * 3)


class TestFrequencyDomain:
    def test_constant_rr_flagged(self):
        f = hrv.frequency_domain(rr_series([1000.0] * 300), 300.0)
        assert f.values["LF"] < 1e-9 and f.values["HF"] < 1e-9
        assert f.flags

    @pytest.mark.acceptance
    def test_lf_modulation(self):
        f = hrv.frequency_domain(modulated_rr(0.1), 300.0)
        assert f.values["LFn"] > 0.9
        assert f.values["LFHF"] > 10

    @pytest.mark.acceptance
    def test_hf_modulation(self):
        f = hrv.frequency_domain(modulated_rr(0.25), 300.0)
        assert f.values["HFn"] > 0.9

    def test_oracle_periodogram_agrees_on_band_dominance(self):
        # independent check: plain-FFT periodogram of the resampled tachogram
        rr = modulated_rr(0.1)
        grid = np.arange(rr.rr_times_s[0], rr.rr_times_s[-1], 0.25)
        tach = np.interp(grid, rr.rr_times_s, rr.rr_ms)
        tach -= tach.mean()
        spec = np.abs(np.fft.rfft(tach)) ** 2
        freqs = np.fft.rfftfreq(len(tach), 0.25)
        lf = spec[(freqs >= 0.04) & (freqs <= 0.15)].sum()
        hf = spec[(freqs > 0.15) & (freqs <= 0.4)].sum()
        assert lf / (lf + hf) > 0.9

    def test_short_span_refused(self):
        with pytest.raises(DataError):
            hrv.frequency_domain(rr_series([1000.0] * 50), 50.0)

    def test_too_few_intervals(self):
        with pytest.raises(DataError):
            hrv.frequency_domain(rr_series([2000.0] * 10), 80.0)


class TestNonlinear:
    def test_constant_rr_degenerate(self):
        f = hrv.nonlinear([1000.0] * 20)
        assert f.values["SD1"] == 0.0 and f.values["SD2"] == 0.0
        assert "degenerate_poincare" in f.flags

    def test_uniform_8_bins_entropy(self):
        rr = [800 + 50 * i + 25 for i in range(8)] * 3
        f = hrv.nonlinear(rr)
        assert f.values["ShanEn"] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.acceptance
    @pytest.mark.parametrize("rr", ORACLE_RR)
    def test_matches_rotation_oracle(self, rr):
        f = hrv.nonlinear(rr)
        sd1, sd2 = oracle_poincare(rr)
        assert f.values["SD1"] == pytest.approx(sd1, rel=1e-9)
        assert f.values["SD2"] == pytest.approx(sd2, rel=1e-9)
        assert f.values["SD1SD2"] == pytest.approx(sd1 / sd2, rel=1e-9)
        assert f.values["CSI"] == pytest.approx(sd2 / sd1, rel=1e-9)
        assert f.values["ShanEn"] == pytest.approx(oracle_shanen(rr), rel=1e-9)

    @pytest.mark.acceptance
    @pytest.mark.parametrize("rr", ORACLE_RR)
    def test_variance_identity(self, rr):
        f = hrv.nonlinear(rr)
        assert (f.values["SD1"] ** 2 + f.values["SD2"] ** 2
                == pytest.approx(2 * np.var(rr), rel=1e-9))


class TestAllFeatures:
    def test_valid_window_all_finite(self):
        f = hrv.all_features(modulated_rr(0.25, span_s=80), 80.0)
        assert f.flags == ()
        assert set(f.values) == set(hrv.FEATURE_NAMES)
        assert all(math.isfinite(v) for v in f.values.values())

    def test_short_window_refused(self):
        with pytest.raises(DataError):
            hrv.all_features(modulated_rr(0.25, span_s=50), 50.0)

    def test_rejection_fraction_flag(self):
        rr = modulated_rr(0.25, span_s=80)
        import dataclasses
        bad = dataclasses.replace(
            rr, rejected_times_s=rr.rr_times_s[:rr.rr_ms.size // 3])
        f = hrv.all_features(bad, 80.0)
        assert "too_many_rejected_intervals" in f.flags


# nan and inf passed the old `span < 60` test and gave features without flags.
@pytest.mark.parametrize("span", [np.nan, np.inf])
@pytest.mark.parametrize("run", [hrv.all_features, hrv.frequency_domain])
def test_non_finite_span_refused(run, span):
    with pytest.raises(DataError, match=r"^spectral features need a window of >= 60 s"):
        run(modulated_rr(0.25, span_s=80), span)


def test_short_span_refusal_shows_the_span():
    # `:.0f` printed a 59.6 s span as "60 s", the floor it was refused for.
    rr = modulated_rr(0.25, span_s=80)
    with pytest.raises(DataError, match=rf"^spectral features need .* got 59\.6 s and "
                                        rf"{rr.rr_ms.size}$"):
        hrv.all_features(rr, 59.6)


rr_lists = st.lists(st.floats(min_value=400, max_value=1900), min_size=6,
                    max_size=60)


class TestProperties:
    @given(rr_lists, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_time_scale_coherence(self, rr, a):
        base = {**hrv.time_domain(rr), **hrv.nonlinear(rr).values}
        scaled = {**hrv.time_domain([a * v for v in rr]),
                  **hrv.nonlinear([a * v for v in rr]).values}
        for name in ("MeanNN", "SDNN", "RMSSD", "SDSD", "MadNN", "MedianNN",
                     "IQRNN", "MinNN", "MaxNN", "SD1", "SD2"):
            assert scaled[name] == pytest.approx(a * base[name], rel=1e-9,
                                                 abs=1e-9), name
        # ShanEn is scale-invariant in exact arithmetic but its bin edges are
        # not under floats; it is covered by the seeded oracle tests instead.
        for name in ("CVNN", "CVSD", "MCVNN"):
            assert scaled[name] == pytest.approx(base[name], rel=1e-9,
                                                 abs=1e-9), name

    @given(rr_lists, st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_subset(self, rr, rnd):
        perm = list(rr)
        rnd.shuffle(perm)
        base = {**hrv.time_domain(rr), **hrv.nonlinear(rr).values}
        shuf = {**hrv.time_domain(perm), **hrv.nonlinear(perm).values}
        for name in ("MeanNN", "SDNN", "MedianNN", "MadNN", "IQRNN", "MinNN",
                     "MaxNN", "ShanEn"):
            assert shuf[name] == pytest.approx(base[name], rel=1e-9,
                                               abs=1e-9), name


class TestCatalog:
    def test_stable_order(self):
        assert hrv.FEATURE_NAMES[0] == "MeanNN"
        assert len(hrv.FEATURE_NAMES) == len(set(hrv.FEATURE_NAMES)) == 27

    def test_domains(self):
        domains = {d for _, d, _, _ in hrv.CATALOG}
        assert domains == {"time", "frequency", "nonlinear"}
