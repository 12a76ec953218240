"""Per-beat pulse rendering and per-value signal writing references.

These are the references that `ppgstress.io._render_beats` and the signal
file of `ppgstress.io.save_dataset` are checked against: the array versions
must return bit-equal samples and write byte-equal files.
"""

from __future__ import annotations

import math

import numpy as np

from ppgstress.io import (DICROTIC_AMPLITUDE, DICROTIC_DELAY_S, FLOAT_FMT,
                          PULSE_WIDTH_S)


def render_beats(beat_times: np.ndarray, fs: float, n: int, dicrotic: bool) -> np.ndarray:
    """Sum one squared-cosine lobe per beat, one slice-add per lobe."""
    t = np.arange(n) / fs
    x = np.zeros(n)
    half = PULSE_WIDTH_S / 2
    lobes = [(0.0, 1.0)]
    if dicrotic:
        lobes.append((DICROTIC_DELAY_S, DICROTIC_AMPLITUDE))
    for tb in beat_times:
        for delay, amp in lobes:
            c = tb + delay
            i0 = max(0, int(math.ceil((c - half) * fs)))
            i1 = min(n, int(math.floor((c + half) * fs)) + 1)
            if i0 >= i1:
                continue
            u = t[i0:i1] - c
            x[i0:i1] += amp * np.cos(np.pi * u / PULSE_WIDTH_S) ** 2
    return x


def signal_text(samples) -> str:
    """A signal file's text: the header, then one `FLOAT_FMT` line per value."""
    return "ppg\n" + "".join(FLOAT_FMT % v + "\n" for v in samples)
