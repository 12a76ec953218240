"""Systolic peak detection and RR interval screening."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

# Two-moving-average event detector constants (Elgendi-style).
MA_PEAK_S = 0.111
MA_BEAT_S = 0.667
OFFSET_FRAC = 0.02
# Minimum accepted block width. The MA_peak window is the published choice;
# anything stricter starts rejecting clean 0.3 s-wide systolic lobes.
MIN_BLOCK_S = MA_PEAK_S
REFRACTORY_S = 0.3

RR_MIN_MS = 300.0
RR_MAX_MS = 2000.0


@dataclass(frozen=True)
class RrSeries:
    """Screened RR intervals with the peak times they came from."""

    peak_times_s: np.ndarray
    rr_ms: np.ndarray
    rr_times_s: np.ndarray  # terminating peak time of each retained interval
    n_rejected: int
    rejected_times_s: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        if np.any(np.diff(self.peak_times_s) <= 0):
            raise DataError("peak times must be strictly increasing")


def _moving_average(y: np.ndarray, width_s: float, fs: float) -> np.ndarray:
    w = max(1, int(round(width_s * fs)))
    return np.convolve(y, np.ones(w) / w, mode="same")


def detect_peaks(x, fs: float) -> np.ndarray:
    """Peak times (seconds, sub-sample) in a band-pass filtered PPG signal.

    Squared clipped signal, MA(0.111 s) vs MA(0.667 s) + 2% mean offset;
    blocks at least one MA_peak window wide yield one peak at the block
    argmax, refined by parabolic interpolation; 0.3 s refractory period.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 5 * fs:
        raise DataError(f"need at least 5 s of signal, got {len(x) / fs:.1f} s")
    y = np.clip(x, 0.0, None) ** 2
    if not np.any(y > 0):
        return np.empty(0)
    ma_peak = _moving_average(y, MA_PEAK_S, fs)
    ma_beat = _moving_average(y, MA_BEAT_S, fs)
    above = ma_peak > ma_beat + OFFSET_FRAC * np.mean(y)

    idx = np.flatnonzero(above)
    if idx.size == 0:
        return np.empty(0)
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    blocks = np.split(idx, splits)

    min_width = int(round(MIN_BLOCK_S * fs))
    peaks = []
    for blk in blocks:
        if len(blk) < min_width:
            continue
        i = blk[np.argmax(x[blk])]
        t = _refine(x, i, fs)
        if peaks and t - peaks[-1] < REFRACTORY_S:
            continue
        peaks.append(t)
    return np.array(peaks)


def _refine(x: np.ndarray, i: int, fs: float) -> float:
    """Parabolic sub-sample refinement over the 3 samples around index i."""
    if 0 < i < len(x) - 1:
        denom = x[i - 1] - 2 * x[i] + x[i + 1]
        if denom < 0:
            return (i + 0.5 * (x[i - 1] - x[i + 1]) / denom) / fs
    return i / fs


def to_rr(peak_times_s) -> RrSeries:
    """Successive peak differences screened to the physiologic [300, 2000] ms gate.

    Intervals outside the gate are dropped (counted), their neighbours kept;
    the pair straddling a dropped interval is never merged.
    """
    peaks = np.asarray(peak_times_s, dtype=float)
    if peaks.size < 3:
        raise DataError(f"need >= 3 peaks for RR intervals, got {peaks.size}")
    rr = np.diff(peaks) * 1000.0
    times = peaks[1:]
    ok = (rr >= RR_MIN_MS) & (rr <= RR_MAX_MS)
    if np.count_nonzero(ok) < 2:
        raise DataError("insufficient beats: fewer than 2 intervals survive screening")
    return RrSeries(peaks, rr[ok], times[ok], int(np.count_nonzero(~ok)), times[~ok])


def window_bounds(times_s: np.ndarray, start_s, end_s) -> tuple:
    """Index bounds [lo, hi) of the sorted times inside each window [start, end)."""
    lo = np.searchsorted(times_s, start_s, "left")
    return lo, np.maximum(lo, np.searchsorted(times_s, end_s, "left"))


def slice_window(rr: RrSeries, start_s: float, end_s: float) -> RrSeries:
    """Restrict an RrSeries to intervals whose terminating peak is in [start, end)."""
    (p0, p1), (r0, r1), (j0, j1) = (
        window_bounds(times, start_s, end_s)
        for times in (rr.peak_times_s, rr.rr_times_s, rr.rejected_times_s))
    return RrSeries(rr.peak_times_s[p0:p1], rr.rr_ms[r0:r1], rr.rr_times_s[r0:r1],
                    int(j1 - j0), rr.rejected_times_s[j0:j1])
