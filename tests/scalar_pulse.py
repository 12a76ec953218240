"""Per-block peak picking reference: the two-moving-average detector with one
Python step per block and per candidate, and its averages by `np.convolve`.

This is the reference `ppgstress.pulse.detect_peaks` is checked against: the
array version, whose averages come from a running sum, must return bit-equal
peak times.
"""

from __future__ import annotations

import numpy as np

from ppgstress import pulse
from ppgstress.errors import DataError


def detect_peaks(x, fs: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if len(x) < 5 * fs:
        raise DataError(f"need at least 5 s of signal, got {len(x) / fs:.1f} s")
    y = np.clip(x, 0.0, None) ** 2
    if not np.any(y > 0):
        return np.empty(0)
    ma_peak = moving_average(y, pulse.MA_PEAK_S, fs)
    ma_beat = moving_average(y, pulse.MA_BEAT_S, fs)
    return pick_peaks(x, ma_peak > ma_beat + pulse.OFFSET_FRAC * np.mean(y), fs)


def moving_average(y: np.ndarray, width_s: float, fs: float) -> np.ndarray:
    """The mean of y over a centred window of width_s seconds, zeros outside y."""
    w = max(1, int(round(width_s * fs)))
    return np.convolve(y, np.ones(w) / w, mode="same")


def pick_peaks(x: np.ndarray, above: np.ndarray, fs: float) -> np.ndarray:
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return np.empty(0)
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    blocks = np.split(idx, splits)

    min_width = int(round(pulse.MIN_BLOCK_S * fs))
    peaks = []
    for blk in blocks:
        if len(blk) < min_width:
            continue
        i = blk[np.argmax(x[blk])]
        t = _refine(x, i, fs)
        if peaks and t - peaks[-1] < pulse.REFRACTORY_S:
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
