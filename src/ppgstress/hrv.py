"""HRV feature catalog: time, frequency and non-linear domains, computed in
batches over all windows of an RR series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import welch_psd
from .errors import DataError
from .pulse import RrSeries

CATALOG_VERSION = "1"

# Normal-consistency constant relating MAD to the standard deviation.
MAD_SCALE = 1.4826
SHANEN_BINS = 8
RESAMPLE_HZ = 4.0
WELCH_SEGMENT = 256
SPECTRAL_MIN_SPAN_S = 60.0
SPECTRAL_MIN_INTERVALS = 20
MAX_REJECTED_FRAC = 0.2
# Windows per batch. A batch's temporaries stay near 1 MB, so each batch
# reuses the heap memory the previous one freed. Whole subjects (~130
# windows, 2-3 MB) make the allocator return that memory after every call
# and fault it in afresh on the next: 50k-150k page faults, of varying
# cost, in each 13-size sweep of 16 subjects.
BATCH_WINDOWS = 64

VLF_BAND = (0.0033, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.4)

# (name, domain, unit, formula) -- column order of every feature matrix.
CATALOG: tuple[tuple[str, str, str, str], ...] = (
    ("MeanNN", "time", "ms", "mean(RR)"),
    ("SDNN", "time", "ms", "std(RR, ddof=1)"),
    ("RMSSD", "time", "ms", "sqrt(mean(diff(RR)^2))"),
    ("SDSD", "time", "ms", "std(diff(RR), ddof=1)"),
    ("CVNN", "time", "", "SDNN / MeanNN"),
    ("CVSD", "time", "", "RMSSD / MeanNN"),
    ("MedianNN", "time", "ms", "median(RR)"),
    ("MadNN", "time", "ms", "1.4826 * median(|RR - median(RR)|)"),
    ("MCVNN", "time", "", "MadNN / MedianNN"),
    ("IQRNN", "time", "ms", "percentile(RR, 75) - percentile(RR, 25)"),
    ("pNN20", "time", "%", "100 * count(|diff(RR)| > 20) / count(diff(RR))"),
    ("pNN50", "time", "%", "100 * count(|diff(RR)| > 50) / count(diff(RR))"),
    ("MinNN", "time", "ms", "min(RR)"),
    ("MaxNN", "time", "ms", "max(RR)"),
    ("VLF", "frequency", "ms^2", "integral of PSD over 0.0033-0.04 Hz"),
    ("LF", "frequency", "ms^2", "integral of PSD over 0.04-0.15 Hz"),
    ("HF", "frequency", "ms^2", "integral of PSD over 0.15-0.4 Hz"),
    ("TP", "frequency", "ms^2", "VLF + LF + HF"),
    ("LFHF", "frequency", "", "LF / HF"),
    ("LFn", "frequency", "", "LF / (LF + HF)"),
    ("HFn", "frequency", "", "HF / (LF + HF)"),
    ("LnHF", "frequency", "ln(ms^2)", "ln(HF)"),
    ("SD1", "nonlinear", "ms", "sqrt(1/2) * std_pop(diff(RR))"),
    ("SD2", "nonlinear", "ms", "sqrt(2*var_pop(RR) - var_pop(diff(RR))/2)"),
    ("SD1SD2", "nonlinear", "", "SD1 / SD2"),
    ("CSI", "nonlinear", "", "SD2 / SD1"),
    ("ShanEn", "nonlinear", "bit",
     "-sum(p*log2(p)) over 8 equal-width RR bins spanning [min, max]"),
)

FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _, _, _ in CATALOG)

# Why a window is unusable, by precedence: a refusal (a DataError from the
# one-window functions), then the flags in catalog order.
DROP_REASONS = ("data_error", "too_many_rejected_intervals", "hf_zero",
                "no_lf_hf_power", "degenerate_poincare")


@dataclass(frozen=True)
class WindowFeatures:
    values: dict[str, float]
    flags: tuple[str, ...] = ()

    @property
    def usable(self) -> bool:
        return not self.flags


def window_features(rr: RrSeries, lo, hi, n_rejected,
                    window_span_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Catalog rows of the windows `rr.rr_ms[lo[i]:hi[i]]` of one RR series.

    Returns `(X, reasons)`: X has a row per window in FEATURE_NAMES order
    (NaN where refused), and `reasons[i, j]` is whether DROP_REASONS[j]
    applies to window i. A window is refused with fewer than 20 intervals or
    a span under 60 s; its `n_rejected[i]` screened-out intervals count
    towards the rejected fraction.
    """
    lo, hi, n_rejected = (np.asarray(a, dtype=np.intp)
                          for a in (lo, hi, n_rejected))
    n = hi - lo
    reasons = np.zeros((n.size, len(DROP_REASONS)), dtype=bool)
    reasons[:, 0] = ((n < SPECTRAL_MIN_INTERVALS)
                     | (window_span_s < SPECTRAL_MIN_SPAN_S))
    reasons[:, 1] = n_rejected / np.maximum(n + n_rejected, 1) > MAX_REJECTED_FRAC
    X = np.full((n.size, len(FEATURE_NAMES)), np.nan)
    ok = np.flatnonzero(~reasons[:, 0])
    for first in range(0, ok.size, BATCH_WINDOWS):
        rows = ok[first:first + BATCH_WINDOWS]
        b_lo, b_hi, b_n = lo[rows], hi[rows], n[rows]
        # Rows padded with their last interval; every reduction masks by n.
        R = rr.rr_ms[np.minimum(b_lo[:, None] + np.arange(b_n.max()),
                                b_hi[:, None] - 1)]
        cols = {**_rr_columns(R, b_n),
                **_spectral_columns(rr.rr_times_s, rr.rr_ms, b_lo, b_hi)}
        X[rows] = np.column_stack([cols[name] for name in FEATURE_NAMES])
        reasons[rows, 2:] = np.column_stack([cols[r] for r in DROP_REASONS[2:]])
    return X, reasons


def _one(cols: dict, domain: str) -> WindowFeatures:
    """The first row of a column dict: one domain's values and raised flags."""
    return WindowFeatures(
        {name: float(cols[name][0]) for name, d, _, _ in CATALOG if d == domain},
        tuple(r for r in DROP_REASONS if r in cols and cols[r][0]))


def _rr_window(rr_ms) -> dict:
    rr = np.asarray(rr_ms, dtype=float)
    if rr.size < 4:
        raise DataError(f"need >= 4 intervals for time and nonlinear features, "
                        f"got {rr.size}")
    return _rr_columns(rr[None, :], np.array([rr.size]))


def _refuse(rr: RrSeries, window_span_s: float) -> None:
    if window_span_s < SPECTRAL_MIN_SPAN_S or rr.rr_ms.size < SPECTRAL_MIN_INTERVALS:
        raise DataError(f"spectral features need a window of >= 60 s and >= 20 "
                        f"intervals, got {window_span_s:.0f} s and {rr.rr_ms.size}")


def time_domain(rr_ms) -> dict[str, float]:
    """The 14 time-domain features of the catalog."""
    return _one(_rr_window(rr_ms), "time").values


def frequency_domain(rr: RrSeries, window_span_s: float) -> WindowFeatures:
    """Band powers of the linearly resampled (4 Hz) RR tachogram via Welch PSD.

    Refuses windows shorter than 60 s: spectral indices are meaningless below
    that span.
    """
    _refuse(rr, window_span_s)
    return _one(_spectral_columns(rr.rr_times_s, rr.rr_ms, np.array([0]),
                                  np.array([rr.rr_ms.size])), "frequency")


def nonlinear(rr_ms) -> WindowFeatures:
    """Poincare descriptors (via the variance identities) plus Shannon entropy."""
    return _one(_rr_window(rr_ms), "nonlinear")


def all_features(rr: RrSeries, window_span_s: float) -> WindowFeatures:
    """All catalog features for one window; any sub-domain flag marks it unusable."""
    _refuse(rr, window_span_s)
    X, reasons = window_features(rr, [0], [rr.rr_ms.size], [rr.n_rejected],
                                 window_span_s)
    return WindowFeatures(dict(zip(FEATURE_NAMES, X[0].tolist())),
                          tuple(r for r, on in zip(DROP_REASONS, reasons[0]) if on))


def _ratio(num: np.ndarray, den: np.ndarray, undefined: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.full_like(num, np.nan), where=~undefined)


def _rr_columns(R: np.ndarray, n: np.ndarray) -> dict:
    """Time-domain and nonlinear columns of the rows R[i, :n[i]] (n >= 4).

    Moments take two passes, since E[x^2] - E[x]^2 cancels badly on
    low-variance windows. Order statistics come from rows sorted with +inf
    padding.
    """
    valid = np.arange(R.shape[1]) < n[:, None]
    mean = np.where(valid, R, 0.0).sum(axis=1) / n
    ss = np.where(valid, (R - mean[:, None]) ** 2, 0.0).sum(axis=1)
    d = np.where(valid[:, 1:], np.diff(R, axis=1), 0.0)
    mean_d = d.sum(axis=1) / (n - 1)
    ss_d = np.where(valid[:, 1:], (d - mean_d[:, None]) ** 2, 0.0).sum(axis=1)
    ordered = np.sort(np.where(valid, R, np.inf), axis=1)
    median = _sorted_median(ordered, n)
    mad = MAD_SCALE * _sorted_median(
        np.sort(np.where(valid, np.abs(R - median[:, None]), np.inf), axis=1), n)
    sdnn = np.sqrt(ss / (n - 1))
    rmssd = np.sqrt((d ** 2).sum(axis=1) / (n - 1))
    var_d = ss_d / (n - 1)
    sd1 = np.sqrt(0.5 * var_d)
    sd2 = np.sqrt(np.maximum(0.0, 2.0 * (ss / n) - 0.5 * var_d))
    degenerate = (sd1 == 0.0) | (sd2 == 0.0)
    counts = _bin_counts(ordered, n)
    p = counts / n[:, None]
    return {
        "MeanNN": mean, "SDNN": sdnn, "RMSSD": rmssd,
        "SDSD": np.sqrt(ss_d / (n - 2)),
        "CVNN": sdnn / mean, "CVSD": rmssd / mean,
        "MedianNN": median, "MadNN": mad, "MCVNN": mad / median,
        "IQRNN": (_sorted_percentile(ordered, n, 0.75)
                  - _sorted_percentile(ordered, n, 0.25)),
        "pNN20": 100.0 * np.count_nonzero(np.abs(d) > 20.0, axis=1) / (n - 1),
        "pNN50": 100.0 * np.count_nonzero(np.abs(d) > 50.0, axis=1) / (n - 1),
        "MinNN": ordered[:, 0], "MaxNN": ordered[np.arange(n.size), n - 1],
        "SD1": sd1, "SD2": sd2,
        "SD1SD2": _ratio(sd1, sd2, degenerate), "CSI": _ratio(sd2, sd1, degenerate),
        "ShanEn": 0.0 - np.sum(
            p * np.log2(p, out=np.zeros_like(p), where=counts > 0), axis=1),
        "degenerate_poincare": degenerate,
    }


def _sorted_median(S: np.ndarray, n: np.ndarray) -> np.ndarray:
    """np.median of each row's first n values; rows sorted ascending."""
    rows = np.arange(n.size)
    return (S[rows, (n - 1) // 2] + S[rows, n // 2]) / 2


def _sorted_percentile(S: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """np.percentile(x, 100 * q) of each row's first n sorted values, with
    numpy's `_lerp`, which works from the upper neighbour at weights >= 0.5."""
    rows = np.arange(n.size)
    virtual = (n - 1) * q
    below = np.floor(virtual).astype(np.intp)
    t = virtual - below
    a, b = S[rows, below], S[rows, np.minimum(below + 1, n - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _bin_counts(S: np.ndarray, n: np.ndarray) -> np.ndarray:
    """np.histogram(x, 8, range=(min, max)) counts of each row's first n
    sorted values: linspace edges, a zero-width range widened by 0.5 on each
    side, indices moved by one where rounding crossed an edge, and a last
    bin closed on the right."""
    rows = np.arange(n.size)
    lo, hi = S[:, 0], S[rows, n - 1]
    first, last = (lo - 0.5 * (lo == hi))[:, None], (hi + 0.5 * (lo == hi))[:, None]
    edges = first + np.arange(SHANEN_BINS + 1) * ((last - first) / SHANEN_BINS)
    edges[:, -1:] = last
    valid = np.arange(S.shape[1]) < n[:, None]
    x = np.where(valid, S, first)
    idx = np.minimum(((x - first) / (last - first) * SHANEN_BINS).astype(np.intp),
                     SHANEN_BINS - 1)
    idx -= x < np.take_along_axis(edges, idx, axis=1)
    idx += (x >= np.take_along_axis(edges, idx + 1, axis=1)) & (idx != SHANEN_BINS - 1)
    return np.bincount((rows[:, None] * SHANEN_BINS + idx)[valid],
                       minlength=n.size * SHANEN_BINS).reshape(-1, SHANEN_BINS)


def _spectral_columns(t: np.ndarray, rr_ms: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> dict:
    """Frequency-domain columns of the windows rr_ms[lo[i]:hi[i]].

    Each window is resampled at 4 Hz on its own grid from its first beat and
    has its mean removed. Windows with the same Welch segment length and
    count are cut to the samples Welch reads and share one welch_psd call.
    """
    t0, t1 = t[lo], t[hi - 1]
    length = np.ceil((t1 - t0) / (1.0 / RESAMPLE_HZ)).astype(np.intp)
    k = np.arange(length.max())
    # np.arange(t0, t1, step) puts sample k at t0 + k * ((t0 + step) - t0).
    grid = t0[:, None] + k * ((t0 + 1.0 / RESAMPLE_HZ) - t0)[:, None]
    # Clamped to the window's last beat, the grid interpolates on the whole
    # series exactly as on the window alone.
    tach = np.interp(np.minimum(grid, t1[:, None], out=grid), t, rr_ms)
    del grid  # not held through the Welch calls
    tach -= (tach.sum(axis=1, where=k < length[:, None]) / length)[:, None]
    seg = np.minimum(WELCH_SEGMENT, length)
    hop = seg - seg // 2
    used = seg + ((length - seg // 2) // hop - 1) * hop
    bands = np.empty((lo.size, 3))
    for s, u in set(zip(seg.tolist(), used.tolist())):
        rows = np.flatnonzero((seg == s) & (used == u))
        psd = welch_psd(tach[rows, :u], RESAMPLE_HZ, s)
        for j, (f_lo, f_hi) in enumerate((VLF_BAND, LF_BAND, HF_BAND)):
            # A band with fewer than 2 bins integrates to 0.
            band = (psd.freqs >= f_lo) & (psd.freqs <= f_hi)
            bands[rows, j] = np.trapezoid(psd.power[:, band], psd.freqs[band], axis=-1)
    vlf, lf, hf = bands.T
    hf_zero, no_power = hf <= 1e-12, lf + hf <= 0
    return {
        "VLF": vlf, "LF": lf, "HF": hf, "TP": vlf + lf + hf,
        "LFHF": _ratio(lf, hf, hf_zero),
        "LFn": _ratio(lf, lf + hf, no_power), "HFn": _ratio(hf, lf + hf, no_power),
        "LnHF": np.log(hf, out=np.full_like(hf, np.nan), where=~hf_zero),
        "hf_zero": hf_zero, "no_lf_hf_power": no_power,
    }
