"""Butterworth band-pass design, zero-phase filtering and Welch PSD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import DataError, ValidationError


@dataclass(frozen=True)
class BiquadCascade:
    """Second-order sections (b0,b1,b2,a1,a2 per row; a0 normalized to 1)."""

    sos: np.ndarray
    order: int
    low_hz: float
    high_hz: float
    fs: float

    @property
    def n_sections(self) -> int:
        return self.sos.shape[0]


def design_butter_bandpass(order: int, low_hz: float, high_hz: float,
                           fs: float) -> BiquadCascade:
    """Digital Butterworth band-pass as a biquad cascade.

    Analog prototype -> band transformation -> bilinear transform with
    prewarped edges, so the -3 dB points land on low_hz/high_hz.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if not 0 < low_hz < high_hz < fs / 2:
        raise ValidationError(
            f"need 0 < low < high < fs/2, got ({low_hz}, {high_hz}) at fs={fs}")
    sos = signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs,
                        output="sos")
    for sec in sos:
        poles = np.roots([1.0, sec[4], sec[5]])
        if np.any(np.abs(poles) >= 1.0):
            raise DataError(
                f"unstable section in order-{order} design for {low_hz:g}-"
                f"{high_hz:g} Hz at fs={fs}; reduce the order or move the "
                "edges away from 0 and fs/2")
    return BiquadCascade(sos, order, low_hz, high_hz, fs)


def freq_response(cascade: BiquadCascade, freqs_hz) -> np.ndarray:
    """Complex H(e^{j omega}) evaluated directly from the section polynomials."""
    w = 2 * np.pi * np.asarray(freqs_hz, dtype=float) / cascade.fs
    z1 = np.exp(-1j * w)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for b0, b1, b2, a1, a2 in cascade.sos[:, [0, 1, 2, 4, 5]]:
        h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


def filtfilt(cascade: BiquadCascade, x) -> np.ndarray:
    """Zero-phase application: filter forward, reverse, filter, reverse.

    Reflection padding (3 * order * 3 samples) absorbs edge transients; the
    effective magnitude response is |H|^2.
    """
    x = np.asarray(x, dtype=float)
    pad = 3 * cascade.order * 3
    if len(x) <= pad:
        raise DataError(f"input too short for zero-phase filtering: "
                        f"{len(x)} samples <= pad {pad}")
    xp = np.pad(x, pad, mode="reflect")
    y = signal.sosfilt(cascade.sos, xp)
    y = signal.sosfilt(cascade.sos, y[::-1])[::-1]
    return y[pad:len(y) - pad]


@dataclass(frozen=True)
class Psd:
    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        if self.freqs[0] != 0 or np.any(np.diff(self.freqs) <= 0):
            raise ValidationError("PSD grid must start at 0 and strictly increase")


def welch_hop(segment_len):
    """Samples between Welch segment starts: half overlap, as scipy's default."""
    return segment_len - segment_len // 2


def welch_psd(x, fs: float, segment_len: int) -> Psd:
    """Hann-windowed, per-segment mean-removed averaged periodogram.

    `x` is one sequence or a (rows, n) stack of them, which gives one power
    row per sequence. As in scipy.signal.welch, segments start every
    `welch_hop(segment_len)` samples and trailing samples that fill no
    segment are unused. Density normalization: the integral over [0, fs/2]
    approximates the signal variance (within windowing bias, roughly +-10%).
    """
    x = np.asarray(x, dtype=float)
    if segment_len < 8:
        raise ValidationError(f"segment_len must be >= 8, got {segment_len}")
    if x.shape[-1] < segment_len:
        raise DataError(f"sequence of {x.shape[-1]} samples shorter than one "
                        f"segment ({segment_len})")
    hop = welch_hop(segment_len)
    segs = np.lib.stride_tricks.sliding_window_view(x, segment_len, axis=-1)
    segs = segs[..., ::hop, :]
    win = signal.get_window("hann", segment_len)
    spec = np.fft.rfft((segs - segs.mean(axis=-1, keepdims=True)) * win, axis=-1)
    power = spec.real ** 2
    power += spec.imag ** 2
    power = power.mean(axis=-2) / (fs * (win * win).sum())
    # One-sided: every bin but 0 Hz and an even length's fs/2 holds its mirror.
    power[..., 1:(segment_len + 1) // 2] *= 2
    return Psd(np.fft.rfftfreq(segment_len, 1 / fs), power)
