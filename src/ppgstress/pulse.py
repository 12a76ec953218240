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


class SegmentPowers:
    """VLF, LF and HF power of the Welch segments of one RR series' window
    tachograms, by segment key: its first beat and its end sample. Windows that
    start on the same beat share their tachogram's samples, so a window-size
    sweep over one series (`RrSeries.powers`) computes each segment once."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.intp)
        self.bands = np.empty((0, 3))

    def get(self, keys: np.ndarray, compute) -> np.ndarray:
        """The rows of `keys`; the keys not yet held are added first, with
        `compute(new)` giving the rows of the sorted array `new`."""
        at = np.searchsorted(self.keys, keys)
        # Keys are >= 0: a key past the last held one meets the -1.
        held = np.append(self.keys, -1)[at] == keys
        if not held.all():
            # Not np.unique, whose first call imports numpy.ma (~1 MB).
            new = np.fromiter(sorted(set(keys[~held].tolist())), np.intp)
            order = np.argsort(all_keys := np.concatenate([self.keys, new]))
            self.keys = all_keys[order]
            self.bands = np.concatenate([self.bands, compute(new)])[order]
            at = np.searchsorted(self.keys, keys)
        return self.bands[at]


@dataclass(frozen=True)
class RrSeries:
    """Screened RR intervals with the peak times they came from. Each instance
    gets a fresh Welch segment table, since its keys name this series' beats."""

    peak_times_s: np.ndarray
    rr_ms: np.ndarray
    rr_times_s: np.ndarray  # terminating peak time of each retained interval
    rejected_times_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    powers: SegmentPowers = field(default_factory=SegmentPowers, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        if len(self.rr_ms) != len(self.rr_times_s):
            raise DataError(f"{len(self.rr_ms)} intervals but "
                            f"{len(self.rr_times_s)} interval times")
        if any(np.any(np.diff(t) <= 0) for t in
               (self.peak_times_s, self.rr_times_s, self.rejected_times_s)):
            raise DataError("peak times must be strictly increasing")

    @property
    def n_rejected(self) -> int:
        return self.rejected_times_s.size


def _moving_averages(c: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """`np.convolve(y, np.ones(w) / w, "same")` for each width w <= len(y),
    one row per width: the sum of y over samples i - w // 2 to i + (w - 1) // 2,
    zeros outside y, over w; y fills c but its first pad + 1 and last pad floats.

    All widths share one running sum of y, which overwrites c: 0 up to c[pad]
    and held flat for the pad = max(widths) floats after y, as the zero
    padding, so an average is a difference of two sums and a division per
    sample, whatever w is. The running sum rounds once per sample: with
    u = 2**-53 and y >= 0, each average is within about 2 u len(y) sum(y) / w
    of the exact one, where the convolution is within about (w + 1) u max(y).
    """
    pad = max(widths)
    c[:pad + 1] = 0.0
    np.cumsum(c[pad + 1:-pad], out=c[pad + 1:-pad])
    c[-pad:] = c[-pad - 1]
    out = np.empty((len(widths), len(c) - 2 * pad - 1))
    for a, w in zip(out, widths):
        np.subtract(c[pad + (w + 1) // 2:][:len(a)], c[pad - w // 2:][:len(a)], out=a)
        a /= w
    return out


def detect_peaks(x, fs: float) -> np.ndarray:
    """Peak times (seconds, sub-sample) in a band-pass filtered PPG signal.

    Squared clipped signal, MA(0.111 s) vs MA(0.667 s) + 2% mean offset,
    both from one running sum (`_moving_averages`); blocks at least one
    MA_peak window wide yield one peak at the block argmax, refined by
    parabolic interpolation; 0.3 s refractory period.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 5 * fs:
        raise DataError(f"need at least 5 s of signal, got {len(x) / fs:.1f} s")
    widths = tuple(max(1, int(round(s * fs))) for s in (MA_PEAK_S, MA_BEAT_S))
    c = np.empty(len(x) + 2 * max(widths) + 1)  # the clipped square, then its sums
    y = np.maximum(x, 0.0, out=c[max(widths) + 1:][:len(x)])
    y *= y
    if not np.any(y > 0):
        return np.empty(0)
    offset = OFFSET_FRAC * np.mean(y)
    ma_peak, ma_beat = _moving_averages(c, widths)
    del c, y  # at most three trace lengths are held at once
    ma_beat += offset
    above = ma_peak > ma_beat
    del ma_peak, ma_beat
    return _pick_peaks(x, above, fs)


def _pick_peaks(x: np.ndarray, above: np.ndarray, fs: float) -> np.ndarray:
    """One peak time per run of `above` at least MIN_BLOCK_S wide: the run's
    first maximum of x, refined by a parabola through it and its neighbours
    unless it is the first or last sample. A peak within REFRACTORY_S of the
    last one kept is dropped."""
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return np.empty(0)
    starts = np.r_[0, np.flatnonzero(np.diff(idx) > 1) + 1]
    width = np.diff(starts, append=idx.size)
    # The maxima of every block first: a reduceat over the wide blocks' starts
    # alone would run each maximum on into the narrow blocks after it.
    xb = x[idx]
    hits = np.flatnonzero(xb == np.repeat(np.maximum.reduceat(xb, starts), width))
    # Each block holds a hit, so its first is the first hit at or after its start.
    first_max = hits[np.searchsorted(hits, starts)]
    i = idx[first_max[width >= int(round(MIN_BLOCK_S * fs))]]
    # Parabolic sub-sample refinement over the 3 samples around each index.
    a, b, c = x[np.maximum(i - 1, 0)], x[i], x[np.minimum(i + 1, x.size - 1)]
    denom = a - 2 * b + c
    refine = (i > 0) & (i < x.size - 1) & (denom < 0)
    times = np.where(refine, i + 0.5 * (a - c) / np.where(refine, denom, -1.0),
                     i) / fs
    peaks = []
    for t in times.tolist():
        if peaks and t - peaks[-1] < REFRACTORY_S:
            continue
        peaks.append(t)
    return np.array(peaks)


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
    return RrSeries(peaks, rr[ok], times[ok], times[~ok])


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
                    rr.rejected_times_s[j0:j1])
