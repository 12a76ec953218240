"""Butterworth band-pass design, zero-phase filtering and Welch PSD, in numpy.

The band-pass is built as `scipy.signal.butter(..., output="sos")` builds it:
analog Butterworth prototype -> band transformation -> bilinear transform
with prewarped edges -> second-order sections, the pole closest to the unit
circle last. A cascade is applied by a block state-space filter
(`BlockFilter`): every section keeps two states and the sections are coupled
through their outputs; the signal is cut into BLOCK-sample blocks, one
matrix product gives every block's zero-state response and its input to the
state, and a doubling scan carries the state across blocks. Its operators
are built once per cascade, and designs are cached. Welch uses the periodic
Hann window and returns a plain `(freqs, power)` pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError

# Samples per block of the state-space filter.
BLOCK = 32
# Multiply-adds per GEMM of this filter and of the KNN filter
# (models.KnnModel.predict_proba, whose GEMMs each take KNN_CHUNK_ROWS test
# rows against a block of rows of the operand that all folds share, and whose
# per-fold norms are one GEMV per such block): few enough that OpenBLAS, at
# its default threshold, runs each on one thread.
GEMM_MACS = 2 ** 18


@dataclass(frozen=True)
class BiquadCascade:
    """Second-order sections (b0,b1,b2,a1,a2 per row; a0 normalized to 1)."""

    sos: np.ndarray
    fs: float

    @functools.cached_property
    def blocks(self) -> "BlockFilter":
        return BlockFilter.of(self.sos)


@functools.lru_cache(maxsize=32)
def design_butter_bandpass(order: int, low_hz: float, high_hz: float,
                           fs: float) -> BiquadCascade:
    """Digital Butterworth band-pass as a biquad cascade.

    Analog prototype -> band transformation -> bilinear transform with
    prewarped edges, so the -3 dB points land on low_hz/high_hz. Designs are
    cached, so every trace at one fs shares one cascade and its filter.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if not 0 < low_hz < high_hz < fs / 2:
        raise ValidationError(
            f"need 0 < low < high < fs/2, got ({low_hz}, {high_hz}) at fs={fs}")
    # The analog prototype's poles, on the left half of the unit circle.
    proto = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    # Edges prewarped for a bilinear transform with sampling rate 2.
    w1, w2 = 4.0 * np.tan(np.pi * (2 * np.array([low_hz, high_hz]) / fs) / 2.0)
    bw, wo = w2 - w1, math.sqrt(w1 * w2)
    lowpass = proto * bw / 2
    shift = np.sqrt(lowpass ** 2 - wo ** 2)
    analog = np.concatenate([lowpass + shift, lowpass - shift])
    poles = (4.0 + analog) / (4.0 - analog)
    # `order` zeros at s = 0 map to z = 1, those at infinity to z = -1.
    gain = bw ** order * (4.0 ** order / np.prod(4.0 - analog)).real
    sos = _sections(poles, order)
    sos[0, :3] *= gain
    for sec in sos:
        roots = np.roots([1.0, sec[4], sec[5]])
        if np.any(np.abs(roots) >= 1.0):
            raise DataError(
                f"unstable section in order-{order} design for {low_hz:g}-"
                f"{high_hz:g} Hz at fs={fs}; reduce the order or move the "
                "edges away from 0 and fs/2")
    sos.flags.writeable = False
    return BiquadCascade(sos, fs)


def _sections(poles: np.ndarray, order: int) -> np.ndarray:
    """Unit-gain sections of the band-pass poles, zeros at z = 1 and z = -1.

    Nearest pairing: the pole (or conjugate pair) closest to the unit circle
    is taken first and gets the nearest zeros left; a real pole is paired
    with the next real pole closest to the circle. The first pole taken ends
    up in the last section.
    """
    tol = 100 * np.finfo(float).eps * np.abs(poles)
    real = np.sort(poles[np.abs(poles.imag) <= tol].real)
    upper = poles[poles.imag > tol]
    left = list(upper[np.lexsort([upper.imag, upper.real])]) + list(real)
    zeros = {-1.0: order, 1.0: order}

    def zero_near(p):
        z = min((z for z, n in zeros.items() if n), key=lambda z: abs(p - z))
        zeros[z] -= 1
        return z

    sos = []
    while left:
        p1 = left.pop(int(np.argmin([abs(1 - abs(p)) for p in left])))
        z1 = zero_near(p1)
        if p1.imag:
            a = [1.0, -2 * p1.real, p1.real * p1.real + p1.imag * p1.imag]
            z2 = zero_near(p1)
        else:
            reals = [i for i, p in enumerate(left) if not p.imag]
            p2 = left.pop(min(reals, key=lambda i: abs(abs(left[i]) - 1)))
            a = [1.0, -(p1.real + p2.real), p1.real * p2.real]
            z2 = zero_near(p2)
        sos.append([1.0, -(z1 + z2), z1 * z2, *a])
    return np.array(sos[::-1])


def _minus_square(a: float, s: float) -> float:
    """a - s*s without the cancellation error of rounding s*s first.

    s*s is split into its rounded value and exact error (Dekker's product,
    splitting s at 2**27 + 1), so when s*s is close to a, as for poles near
    each other, the difference is rounded once.
    """
    p = s * s
    c = 134217729.0 * s
    hi = c - (c - s)
    lo = s - hi
    return (a - p) - (((hi * hi - p) + 2 * hi * lo) + lo * lo)


@dataclass(frozen=True)
class BlockFilter:
    """A cascade's state-space form, acted on BLOCK samples at a time.

    With states s and input x, one sample is y = C s + D x, s' = A s + B x.
    For a block x_0..x_{L-1} starting in state s: y_k = C A^k s +
    sum_{j<=k} h_{k-j} x_j, with h_0 = D and h_m = C A^{m-1} B, and the
    state after it is A^L s + sum_j A^{L-1-j} B x_j.

    Each section keeps two states, and sections are coupled only through
    their outputs. A section's DF-II-T states w are replaced by q = S^-1 w,
    S = [[1, 0], [-sigma, mu]], in which its own transition is the normal
    matrix [[sigma, mu], [-+mu, sigma]] whose eigenvalues sigma +- j mu or
    sigma +- mu are the section's poles, taken exactly from a1 and a2. Over
    one block the DF-II-T companion matrix of poles near z = 1 grows to
    hundreds, and the doubling scan then lost up to 1e-7 of the peak (order
    8, 0.1-3 Hz at 1000 Hz); in this basis it stays at round-off.
    """

    gain: np.ndarray     # (L, L + n): [T^T | Psi^T], T the impulse Toeplitz
    observe: np.ndarray  # (n, L): column k of the block's (C A^k)^T
    step: np.ndarray     # (n, n): (A^L)^T, the state carried across a block

    @classmethod
    def of(cls, sos: np.ndarray) -> "BlockFilter":
        n = 2 * len(sos)
        # Rows: each state's next value, then the output, over [s, x].
        A = np.zeros((n, n + 1))
        out = np.zeros(n + 1)
        out[n] = 1.0
        for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
            # DF-II-T: y = w1 + b0 u, w' = [[-a1, 1], [-a2, 0]] w + beta u.
            beta = np.array([b1 - a1 * b0, b2 - a2 * b0])
            sigma = -a1 / 2
            mu2 = _minus_square(a2, sigma)  # mu^2 for complex poles, -mu^2 for real
            mu = math.sqrt(abs(mu2))
            if mu:
                N = [[sigma, mu], [-math.copysign(mu, mu2), sigma]]
                beta[1] = (sigma * beta[0] + beta[1]) / mu
            else:  # a double real pole: keep the DF-II-T states
                N = [[-a1, 1.0], [-a2, 0.0]]
            A[2 * i:2 * i + 2] = np.outer(beta, out)
            A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = N
            out = b0 * out  # y = w1 + b0 u = q1 + b0 u: S's first row is [1, 0]
            out[2 * i] += 1.0
        A, B, C, D = A[:, :n], A[:, n], out[:n], out[n]
        powers = [np.eye(n)]
        for _ in range(BLOCK):
            powers.append(A @ powers[-1])
        h = np.r_[D, [C @ P @ B for P in powers[:BLOCK - 1]]]
        k = np.arange(BLOCK)
        lag = k[:, None] - k[None, :]
        T = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
        psi = np.stack([powers[BLOCK - 1 - j] @ B for j in k], axis=1)
        return cls(np.c_[T.T, psi.T], np.stack([C @ P for P in powers[:BLOCK]], axis=1),
                   powers[BLOCK].T)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Filter x from zero state, as one sequential pass would."""
        n, width = len(x), self.gain.shape[1]
        blocks = -(-n // BLOCK)
        gemms = -(-blocks // max(1, GEMM_MACS // (BLOCK * width)))
        rows = -(-blocks // gemms)  # blocks per GEMM, spread evenly
        xb = np.zeros(gemms * rows * BLOCK)  # trailing zeros do not reach y[:n]
        xb[:n] = x
        w = (xb.reshape(gemms, rows, BLOCK) @ self.gain).reshape(-1, width)
        del xb  # freed before the scan: the filter passes set the build's memory peak
        y, end = w[:, :BLOCK], w[:, BLOCK:]
        # end[b] becomes the state after block b: a doubling (Hillis-Steele) scan.
        M, d = self.step, 1
        while d < len(end):
            end[d:] += end[:-d] @ M
            M, d = M @ M, 2 * d
        y[1:] += end[:-1] @ self.observe
        return y.reshape(-1)[:n]


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

    Reflection padding (9 samples per section, 3 * order * 3 for a
    band-pass) absorbs edge transients; the effective magnitude response is
    |H|^2.
    """
    x = np.asarray(x, dtype=float)
    pad = 9 * len(cascade.sos)
    if len(x) <= pad:
        raise DataError(f"input too short for zero-phase filtering: "
                        f"{len(x)} samples <= pad {pad}")
    # The padded copy is freed before the backward pass.
    y = cascade.blocks(np.pad(x, pad, mode="reflect"))
    y = cascade.blocks(y[::-1])[::-1]
    return y[pad:len(y) - pad]


def welch_hop(segment_len):
    """Samples between Welch segment starts: half overlap, as scipy's default."""
    return segment_len - segment_len // 2


def hann(n: int) -> np.ndarray:
    """The periodic Hann window of n samples: the first n points of the
    symmetric (n + 1)-point window, evaluated as scipy.signal.get_window does."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def welch_psd(x, fs: float, segment_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed, per-segment mean-removed averaged periodogram, as
    `(freqs, power)`: the `np.fft.rfftfreq` grid of the segment and its power.

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
    win = hann(segment_len)
    centred = segs - segs.mean(axis=-1, keepdims=True)
    centred *= win
    spec = np.fft.rfft(centred, axis=-1)
    del centred
    power = spec.real ** 2
    power += np.square(spec.imag, out=spec.imag)
    del spec
    power = power.mean(axis=-2)
    power /= fs * (win * win).sum()
    # One-sided: every bin but 0 Hz and an even length's fs/2 holds its mirror.
    power[..., 1:(segment_len + 1) // 2] *= 2
    return np.fft.rfftfreq(segment_len, 1 / fs), power
