"""Per-window scalar HRV reference: the catalog computed one window at a time.

This is the reference the batched engine in `ppgstress.hrv` is checked
against. It computes each window on its own from `np.std`, `np.median`,
`np.percentile`, `np.histogram` and a 1-D `welch_psd`, with the same rules
for flags and refusals, in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from ppgstress import hrv, pulse
from ppgstress.dsp import welch_psd
from ppgstress.errors import DataError


def slice_window(rr: pulse.RrSeries, start_s: float, end_s: float) -> pulse.RrSeries:
    """Intervals whose terminating peak is in [start, end), by boolean masks."""
    pk = (rr.peak_times_s >= start_s) & (rr.peak_times_s < end_s)
    keep = (rr.rr_times_s >= start_s) & (rr.rr_times_s < end_s)
    rej = (rr.rejected_times_s >= start_s) & (rr.rejected_times_s < end_s)
    return pulse.RrSeries(rr.peak_times_s[pk], rr.rr_ms[keep], rr.rr_times_s[keep],
                          rr.rejected_times_s[rej])


def time_domain(rr_ms) -> dict[str, float]:
    rr = np.asarray(rr_ms, dtype=float)
    if rr.size < 4:
        raise DataError(f"need >= 4 intervals for time-domain features, got {rr.size}")
    d = np.diff(rr)
    mean = float(np.mean(rr))
    sdnn = float(np.std(rr, ddof=1))
    rmssd = float(np.sqrt(np.mean(d ** 2)))
    median = float(np.median(rr))
    mad = hrv.MAD_SCALE * float(np.median(np.abs(rr - median)))
    return {
        "MeanNN": mean,
        "SDNN": sdnn,
        "RMSSD": rmssd,
        "SDSD": float(np.std(d, ddof=1)),
        "CVNN": sdnn / mean,
        "CVSD": rmssd / mean,
        "MedianNN": median,
        "MadNN": mad,
        "MCVNN": mad / median,
        "IQRNN": float(np.percentile(rr, 75) - np.percentile(rr, 25)),
        "pNN20": 100.0 * float(np.count_nonzero(np.abs(d) > 20.0)) / d.size,
        "pNN50": 100.0 * float(np.count_nonzero(np.abs(d) > 50.0)) / d.size,
        "MinNN": float(np.min(rr)),
        "MaxNN": float(np.max(rr)),
    }


def _band_power(freqs, power, lo: float, hi: float) -> float:
    mask = (freqs >= lo) & (freqs <= hi)
    if np.count_nonzero(mask) < 2:
        return 0.0
    return float(np.trapezoid(power[mask], freqs[mask]))


def frequency_domain(rr: pulse.RrSeries, window_span_s: float) -> hrv.WindowFeatures:
    if window_span_s < hrv.SPECTRAL_MIN_SPAN_S:
        raise DataError(f"spectral features need a window of >= 60 s, "
                        f"got {window_span_s:.0f} s")
    if rr.rr_ms.size < hrv.SPECTRAL_MIN_INTERVALS:
        raise DataError(f"need >= 20 intervals for spectral features, "
                        f"got {rr.rr_ms.size}")
    t = rr.rr_times_s
    grid = np.arange(t[0], t[-1], 1.0 / hrv.RESAMPLE_HZ)
    tach = np.interp(grid, t, rr.rr_ms)
    tach = tach - np.mean(tach)
    seg = min(hrv.WELCH_SEGMENT, len(tach))
    psd = welch_psd(tach, hrv.RESAMPLE_HZ, seg)

    vlf = _band_power(*psd, *hrv.VLF_BAND)
    lf = _band_power(*psd, *hrv.LF_BAND)
    hf = _band_power(*psd, *hrv.HF_BAND)
    flags: list[str] = []
    if hf <= 1e-12:
        flags.append("hf_zero")
        lfhf = lnhf = math.nan
    else:
        lfhf = lf / hf
        lnhf = math.log(hf)
    denom = lf + hf
    lfn = lf / denom if denom > 0 else math.nan
    hfn = hf / denom if denom > 0 else math.nan
    if denom <= 0:
        flags.append("no_lf_hf_power")
    return hrv.WindowFeatures({
        "VLF": vlf, "LF": lf, "HF": hf, "TP": vlf + lf + hf,
        "LFHF": lfhf, "LFn": lfn, "HFn": hfn, "LnHF": lnhf,
    }, tuple(flags))


def histogram_counts(rr) -> np.ndarray:
    """The 8 ShanEn bin counts over [min, max]."""
    rr = np.asarray(rr, dtype=float)
    return np.histogram(rr, bins=hrv.SHANEN_BINS, range=(rr.min(), rr.max()))[0]


def shannon_entropy(rr: np.ndarray) -> float:
    lo, hi = float(np.min(rr)), float(np.max(rr))
    if hi == lo:
        return 0.0
    counts = histogram_counts(rr)
    p = counts[counts > 0] / rr.size
    return float(-np.sum(p * np.log2(p)))


def nonlinear(rr_ms) -> hrv.WindowFeatures:
    rr = np.asarray(rr_ms, dtype=float)
    if rr.size < 4:
        raise DataError(f"need >= 4 intervals for nonlinear features, got {rr.size}")
    d = np.diff(rr)
    var_d = float(np.var(d))
    var_rr = float(np.var(rr))
    sd1 = math.sqrt(0.5 * var_d)
    sd2 = math.sqrt(max(0.0, 2.0 * var_rr - 0.5 * var_d))
    flags: list[str] = []
    if sd1 == 0.0 or sd2 == 0.0:
        flags.append("degenerate_poincare")
        ratio = csi = math.nan
    else:
        ratio = sd1 / sd2
        csi = sd2 / sd1
    return hrv.WindowFeatures({
        "SD1": sd1, "SD2": sd2, "SD1SD2": ratio, "CSI": csi,
        "ShanEn": shannon_entropy(rr),
    }, tuple(flags))


def all_features(rr: pulse.RrSeries, window_span_s: float) -> hrv.WindowFeatures:
    flags: list[str] = []
    total = rr.rr_ms.size + rr.n_rejected
    if total > 0 and rr.n_rejected / total > hrv.MAX_REJECTED_FRAC:
        flags.append("too_many_rejected_intervals")
    values = dict(time_domain(rr.rr_ms))
    freq = frequency_domain(rr, window_span_s)
    values.update(freq.values)
    flags.extend(freq.flags)
    nl = nonlinear(rr.rr_ms)
    values.update(nl.values)
    flags.extend(nl.flags)
    ordered = {name: values[name] for name in hrv.FEATURE_NAMES}
    return hrv.WindowFeatures(ordered, tuple(flags))


def window_outcomes(rr: pulse.RrSeries, windows, window_span_s: float):
    """(features or None, drop reason or "") for each window of a `segment`
    record array, one at a time.

    The drop reason is "data_error" for a refused window, else the window's
    first flag.
    """
    out = []
    for start, end in zip(windows.start_s, windows.end_s):
        try:
            feats = all_features(slice_window(rr, start, end), window_span_s)
        except DataError:
            out.append((None, "data_error"))
            continue
        out.append((feats, feats.flags[0] if feats.flags else ""))
    return out
