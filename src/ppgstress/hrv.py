"""HRV feature catalog: time, frequency and non-linear domains, computed for
all windows of an RR series at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import welch_hop, welch_psd
from .errors import DataError
from .pulse import RrSeries, window_bounds

CATALOG_VERSION = "1"

# Normal-consistency constant relating MAD to the standard deviation.
MAD_SCALE = 1.4826
SHANEN_BINS = 8
RESAMPLE_HZ = 4.0
WELCH_SEGMENT = 256
SPECTRAL_MIN_SPAN_S = 60.0
SPECTRAL_MIN_INTERVALS = 20
MAX_REJECTED_FRAC = 0.2

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


def window_features(rr: RrSeries, start_s, end_s) -> tuple[np.ndarray, np.ndarray]:
    """Catalog rows of the windows [start_s[i], end_s[i]) of one RR series; a
    window holds the intervals whose terminating peak lies in it (`window_bounds`).
    Scalar times are one window.

    Returns `(X, reasons)`: X has a row per window in FEATURE_NAMES order
    (NaN where refused), and `reasons[i, j]` is whether DROP_REASONS[j]
    applies to window i. A window is refused with fewer than 20 intervals;
    the rejected intervals it holds count towards the rejected fraction.
    Spans under 60 s are refused before this, by `WindowSpec` and by
    `all_features`. Welch segments are read from, or added to, the series'
    own table (`rr.powers`), so later calls on the series reuse them.
    """
    start_s, end_s = np.atleast_1d(start_s, end_s)
    (lo, hi), (j0, j1) = (window_bounds(times, start_s, end_s)
                          for times in (rr.rr_times_s, rr.rejected_times_s))
    n, n_rejected = hi - lo, j1 - j0
    reasons = np.zeros((n.size, len(DROP_REASONS)), dtype=bool)
    reasons[:, 0] = n < SPECTRAL_MIN_INTERVALS
    reasons[:, 1] = n_rejected / np.maximum(n + n_rejected, 1) > MAX_REJECTED_FRAC
    X = np.full((n.size, len(FEATURE_NAMES)), np.nan)
    ok = np.flatnonzero(~reasons[:, 0])
    if ok.size:
        lo, hi, n = lo[ok], hi[ok], n[ok]
        # Each column is written in place, so few of a call's arrays outlive
        # its large temporaries in the heap.
        rows, flags = X[ok], reasons[ok]
        cols = _columns(rows, flags)
        _spectral_columns(rr, lo, hi, cols)
        # Rows padded with their last interval.
        at = lo[:, None] + np.arange(n.max())
        _rr_columns(rr.rr_ms[np.minimum(at, hi[:, None] - 1, out=at)], n, cols)
        X[ok], reasons[ok] = rows, flags
    return X, reasons


def _columns(X: np.ndarray, reasons: np.ndarray) -> dict:
    """Views of each catalog column of X and each flag column of `reasons`
    (DROP_REASONS order), by name."""
    return dict(zip(FEATURE_NAMES + DROP_REASONS, [*X.T, *reasons.T]))


def _one(cols: dict, domain: str) -> WindowFeatures:
    """The first row of a column dict: one domain's values and raised flags."""
    return WindowFeatures(
        {name: float(cols[name][0]) for name, d, _, _ in CATALOG if d == domain},
        tuple(r for r in DROP_REASONS if cols[r][0]))


def _one_row() -> dict:
    """The columns of one window, NaN and unflagged until written."""
    return _columns(np.full((1, len(FEATURE_NAMES)), np.nan),
                    np.zeros((1, len(DROP_REASONS)), dtype=bool))


def _rr_window(rr_ms) -> dict:
    rr = np.array(rr_ms, dtype=float)  # a copy: `_rr_columns` sorts it in place
    if rr.size < 4:
        raise DataError(f"need >= 4 intervals for time and nonlinear features, "
                        f"got {rr.size}")
    _rr_columns(rr[None, :], np.array([rr.size]), cols := _one_row())
    return cols


def _refuse(rr: RrSeries, window_span_s: float) -> None:
    # nan fails every comparison, so this refuses nan as well as inf.
    if not SPECTRAL_MIN_SPAN_S <= window_span_s < np.inf or rr.rr_ms.size < SPECTRAL_MIN_INTERVALS:
        raise DataError(f"spectral features need a window of >= 60 s and >= 20 "
                        f"intervals, got {window_span_s:g} s and {rr.rr_ms.size}")


def time_domain(rr_ms) -> dict[str, float]:
    """The 14 time-domain features of the catalog."""
    return _one(_rr_window(rr_ms), "time").values


def frequency_domain(rr: RrSeries, window_span_s: float) -> WindowFeatures:
    """Band powers of the linearly resampled (4 Hz) RR tachogram via Welch PSD.

    Refuses windows shorter than 60 s: spectral indices are meaningless below
    that span.
    """
    _refuse(rr, window_span_s)
    _spectral_columns(rr, np.array([0]), np.array([rr.rr_ms.size]), cols := _one_row())
    return _one(cols, "frequency")


def nonlinear(rr_ms) -> WindowFeatures:
    """Poincare descriptors (via the variance identities) plus Shannon entropy."""
    return _one(_rr_window(rr_ms), "nonlinear")


def all_features(rr: RrSeries, window_span_s: float) -> WindowFeatures:
    """All catalog features for one window; any sub-domain flag marks it unusable."""
    _refuse(rr, window_span_s)
    X, reasons = window_features(rr, [-np.inf], [np.inf])
    return WindowFeatures(dict(zip(FEATURE_NAMES, X[0].tolist())),
                          tuple(r for r, on in zip(DROP_REASONS, reasons[0]) if on))


def _ratio(num: np.ndarray, den: np.ndarray, undefined: np.ndarray, out: np.ndarray):
    """num / den into out, NaN where `undefined`."""
    out[:] = np.nan
    np.divide(num, den, out=out, where=~undefined)


def _rr_columns(R: np.ndarray, n: np.ndarray, cols: dict) -> None:
    """Time-domain and nonlinear columns of the rows R[i, :n[i]] (n >= 4),
    each padded with its last interval, written into `cols`. R is
    overwritten: it ends sorted along each row, with +inf padding.

    Moments take two passes, since E[x^2] - E[x]^2 cancels badly on
    low-variance windows. Order statistics come from the sorted rows.
    """
    pad = np.arange(R.shape[1]) >= n[:, None]
    # The padding repeats each row's last interval, so its differences are 0.
    d = np.diff(R, axis=1)
    work = np.abs(d)
    np.divide(100.0 * np.count_nonzero(work > 20.0, axis=1), n - 1, out=cols["pNN20"])
    np.divide(100.0 * np.count_nonzero(work > 50.0, axis=1), n - 1, out=cols["pNN50"])
    rmssd = np.sqrt(np.square(d, out=work).sum(axis=1) / (n - 1), out=cols["RMSSD"])
    del work
    ss_d = _masked_ss(np.subtract(d, (d.sum(axis=1) / (n - 1))[:, None], out=d),
                      pad[:, 1:])
    del d
    np.sqrt(ss_d / (n - 2), out=cols["SDSD"])
    half_var_d = 0.5 * (ss_d / (n - 1))
    sd1 = np.sqrt(half_var_d, out=cols["SD1"])
    np.copyto(R, 0.0, where=pad)
    mean = np.divide(R.sum(axis=1), n, out=cols["MeanNN"])
    dev = R - mean[:, None]
    ss = _masked_ss(dev, pad)
    sdnn = np.sqrt(ss / (n - 1), out=cols["SDNN"])
    sd2 = np.sqrt(np.maximum(0.0, 2.0 * (ss / n) - half_var_d), out=cols["SD2"])
    np.divide(sdnn, mean, out=cols["CVNN"])
    np.divide(rmssd, mean, out=cols["CVSD"])
    degenerate = np.logical_or(sd1 == 0.0, sd2 == 0.0, out=cols["degenerate_poincare"])
    _ratio(sd1, sd2, degenerate, cols["SD1SD2"])
    _ratio(sd2, sd1, degenerate, cols["CSI"])
    np.copyto(R, np.inf, where=pad)
    R.sort(axis=1)
    median = cols["MedianNN"]
    median[:] = _sorted_median(R, n)
    # |x - median| of the sorted rows keeps their +inf padding.
    np.abs(np.subtract(R, median[:, None], out=dev), out=dev)
    dev.sort(axis=1)
    mad = np.multiply(MAD_SCALE, _sorted_median(dev, n), out=cols["MadNN"])
    del dev
    np.divide(mad, median, out=cols["MCVNN"])
    np.subtract(_sorted_percentile(R, n, 0.75), _sorted_percentile(R, n, 0.25),
                out=cols["IQRNN"])
    cols["MinNN"][:], cols["MaxNN"][:] = R[:, 0], R[np.arange(n.size), n - 1]
    counts = _bin_counts(R, n)
    p = counts / n[:, None]
    np.subtract(0.0, np.sum(p * np.log2(p, out=np.zeros_like(p), where=counts > 0),
                            axis=1), out=cols["ShanEn"])


def _masked_ss(x: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of x outside `pad`; x is overwritten."""
    np.copyto(x, 0.0, where=pad)
    return np.square(x, out=x).sum(axis=1)


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
    sorted values (+inf padded). np.histogram puts each value in the bin whose
    linspace edges hold it, the last bin closed on the right, and widens a
    zero-width range by 0.5 on each side. So a bin counts the values below
    its upper edge less those below its lower edge, and all n lie below the
    last."""
    lo, hi = S[:, 0], S[np.arange(n.size), n - 1]
    first, last = lo - 0.5 * (lo == hi), hi + 0.5 * (lo == hi)
    inner = (first[:, None]
             + np.arange(1, SHANEN_BINS) * ((last - first) / SHANEN_BINS)[:, None])
    # The values below each inner edge: a branchless bisection of all rows at
    # once, whose steps do not depend on the data. `at` is the flat index of
    # each search's base, and base + size never passes its row's end.
    flat = S.ravel()
    start = np.arange(0, S.size, S.shape[1])[:, None]
    at = np.repeat(start, SHANEN_BINS - 1, axis=1)
    size = S.shape[1]
    while size > 1:
        half = size // 2
        at += half * (flat[at + half] < inner)
        size -= half
    below = np.zeros((n.size, SHANEN_BINS + 1), dtype=np.intp)
    below[:, 1:-1] = at - start + (flat[at] < inner)
    below[:, -1] = n
    return below[:, 1:] - below[:, :-1]


def _spectral_columns(rr: RrSeries, lo: np.ndarray, hi: np.ndarray, cols: dict) -> None:
    """Frequency-domain columns of the windows rr.rr_ms[lo[i]:hi[i]], into `cols`.

    Each window is resampled at 4 Hz on its own grid from its first beat.
    Welch cuts that tachogram into 256-sample segments every 128 samples, or
    takes it whole when it is shorter, and removes each segment's own mean;
    the window mean is not removed first. A segment's band powers therefore
    depend only on its key (see `pulse.SegmentPowers`), and a window's are the
    mean of its segments', taken from the series' table or computed and added
    to it.
    """
    t, rr_ms = rr.rr_times_s, rr.rr_ms
    step = 1.0 / RESAMPLE_HZ
    length = np.ceil((t[hi - 1] - t[lo]) / step).astype(np.intp)
    seg = np.minimum(WELCH_SEGMENT, length)
    n_seg = 1 + (length - seg) // welch_hop(WELCH_SEGMENT)
    first = np.cumsum(n_seg) - n_seg
    win = np.repeat(np.arange(lo.size), n_seg)
    end = seg[win] + (np.arange(win.size) - first[win]) * welch_hop(WELCH_SEGMENT)
    # No window's tachogram is longer than the whole series'.
    stride = int(np.ceil((t[-1] - t[0]) / step)) + 1
    bands = rr.powers.get(lo[win] * stride + end, lambda keys: _segment_bands(
        t, rr_ms, keys // stride, keys % stride))
    vlf, lf, hf = (cols[name] for name in ("VLF", "LF", "HF"))
    vlf[:], lf[:], hf[:] = (np.add.reduceat(bands, first) / n_seg[:, None]).T
    np.add(vlf + lf, hf, out=cols["TP"])
    hf_zero = np.less_equal(hf, 1e-12, out=cols["hf_zero"])
    lf_hf = lf + hf
    no_power = np.less_equal(lf_hf, 0, out=cols["no_lf_hf_power"])
    _ratio(lf, hf, hf_zero, cols["LFHF"])
    _ratio(lf, lf_hf, no_power, cols["LFn"])
    _ratio(hf, lf_hf, no_power, cols["HFn"])
    cols["LnHF"][:] = np.nan
    np.log(hf, out=cols["LnHF"], where=~hf_zero)


def _segment_bands(t: np.ndarray, rr_ms: np.ndarray, lo: np.ndarray,
                   end: np.ndarray) -> np.ndarray:
    """VLF, LF and HF power of the Welch segments ending at sample `end` of
    the tachograms that start on beat `lo`; segments of one length share a
    welch_psd call."""
    step = 1.0 / RESAMPLE_HZ
    seg = np.minimum(WELCH_SEGMENT, end)
    bands = np.empty((lo.size, 3))
    for s in set(seg.tolist()):
        rows = np.flatnonzero(seg == s)
        t0 = t[lo[rows]]
        # np.arange(t0, t1, step) puts sample k at t0 + k * ((t0 + step) - t0);
        # one (rows, s) array holds k, then the times.
        grid = np.arange(s, dtype=float) + (end[rows] - s)[:, None]
        grid *= ((t0 + step) - t0)[:, None]
        grid += t0[:, None]
        tachogram = np.interp(grid, t, rr_ms)
        del grid
        bands[rows] = _band_powers(*welch_psd(tachogram, RESAMPLE_HZ, s))
    return bands


def _band_powers(freqs: np.ndarray, power: np.ndarray) -> np.ndarray:
    """VLF, LF and HF power of each row of `power`: np.trapezoid over the bins
    in each closed band (a band with fewer than 2 bins integrates to 0).

    The trapezoid terms are formed as np.trapezoid forms them, but once for
    all bands and row by row in memory, so each row is summed in the same
    order as when it is alone: a segment's powers do not depend on the
    segments that share its Welch call.
    """
    edges = np.array([VLF_BAND, LF_BAND, HF_BAND])
    lo = np.searchsorted(freqs, edges[:, 0]).tolist()
    hi = np.searchsorted(freqs, edges[:, 1], "right").tolist()
    f, y = freqs[lo[0]:hi[-1]], power[:, lo[0]:hi[-1]]
    terms = np.diff(f) * (y[:, 1:] + y[:, :-1]) / 2.0
    out = np.empty((len(power), 3))
    for j, (a, b) in enumerate(zip(lo, hi)):
        terms[:, a - lo[0]:max(a, b - 1) - lo[0]].sum(axis=1, out=out[:, j])
    return out
