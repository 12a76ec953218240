"""Butterworth band-pass design, zero-phase filtering and Welch PSD, in numpy.

The band-pass is built as `scipy.signal.butter(..., output="sos")` builds it:
analog Butterworth prototype -> band transformation -> bilinear transform
with prewarped edges -> second-order sections, the pole closest to the unit
circle last. A `BiquadCascade` is also its own block state-space filter:
every section keeps two states and the sections are coupled through their
outputs; the signal is cut into BLOCK-sample blocks, one matrix product gives
every block's zero-state response and its input to the state, and a doubling
scan carries the state across blocks, on a contiguous copy of the state
columns. The cascade builds these operators, and designs are cached. `filtfilt`
runs both passes in one buffer: it writes the reflection-padded signal there,
and each pass's output goes back reversed, whole blocks at a time. Welch uses
the periodic Hann window and returns a plain `(freqs, power)` pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ValidationError, is_whole

# Samples per block of the state-space filter.
BLOCK = 32
# Multiply-adds per GEMM of this filter and of the KNN filter
# (models.KnnModel.predict_proba, whose GEMMs each take KNN_CHUNK_ROWS test
# rows against a block of rows of the operand that all folds share, and whose
# per-fold norms are one GEMV per such block): few enough that OpenBLAS, at
# its default threshold, runs each on one thread.
GEMM_MACS = 2 ** 18


@functools.lru_cache(maxsize=32, typed=True)
def design_butter_bandpass(order: int, low_hz: float, high_hz: float,
                           fs: float) -> BiquadCascade:
    """Digital Butterworth band-pass as a biquad cascade.

    Analog prototype -> band transformation -> bilinear transform with
    prewarped edges, so the -3 dB points land on low_hz/high_hz. Designs are
    cached, so every trace at one fs shares one cascade and its operators.
    """
    if not (is_whole(order) and order >= 1):
        raise ValidationError(f"order must be a whole number >= 1, got {order!r}")
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
class BiquadCascade:
    """Second-order sections (b0,b1,b2,a1,a2 per row; a0 normalized to 1),
    and their state-space form, acted on BLOCK samples at a time.

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

    sos: np.ndarray
    fs: float
    # Built from sos when the cascade is made; T is the impulse Toeplitz.
    gain: np.ndarray = field(init=False, repr=False)     # (L, L + n): [T^T | Psi^T]
    observe: np.ndarray = field(init=False, repr=False)  # (n, L): column k is (C A^k)^T
    step: np.ndarray = field(init=False, repr=False)     # (n, n): (A^L)^T, across a block

    def __post_init__(self):
        n = 2 * len(self.sos)
        # Rows: each state's next value, then the output, over [s, x].
        A = np.zeros((n, n + 1))
        out = np.zeros(n + 1)
        out[n] = 1.0
        for i, (b0, b1, b2, _, a1, a2) in enumerate(self.sos):
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
        object.__setattr__(self, "gain", np.c_[T.T, psi.T])
        object.__setattr__(self, "observe",
                           np.stack([C @ P for P in powers[:BLOCK]], axis=1))
        object.__setattr__(self, "step", powers[BLOCK].T)

    def layout(self, n: int) -> tuple[int, int]:
        """(gemms, rows): the blocks of n samples as GEMMs of at most GEMM_MACS
        multiply-adds, with the blocks spread evenly over them."""
        blocks = -(-n // BLOCK)
        gemms = -(-blocks // max(1, GEMM_MACS // (BLOCK * self.gain.shape[1])))
        return gemms, -(-blocks // gemms)

    def __call__(self, xb: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Filter the samples of xb from zero state, as one sequential pass
        would. xb holds them in (gemms, rows, BLOCK) blocks as `layout` gives,
        zeros after the last, and is overwritten. The block products go to
        `out`, of shape (gemms, rows, BLOCK + states), and the output is a
        (gemms * rows, BLOCK) view of it, its trailing blocks the response to
        those zeros."""
        w = np.matmul(xb, self.gain, out=out).reshape(-1, self.gain.shape[1])
        y = w[:, :BLOCK]
        # end[b] becomes the state after block b: a doubling (Hillis-Steele)
        # scan, on a contiguous copy, which runs about five times as fast as
        # on w's strided columns.
        end = w[:, BLOCK:].copy()
        M, d = self.step, 1
        while d < len(end):
            end[d:] += end[:-d] @ M
            M, d = M @ M, 2 * d
        # The carried states' response goes into xb, which the product has
        # spent: a fresh array this size page-faults on every call.
        y[1:] += np.matmul(end[:-1], self.observe, out=xb.reshape(-1, BLOCK)[1:])
        return y


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
    n, pad = len(x), 9 * len(cascade.sos)
    if n <= pad:
        raise DataError(f"input too short for zero-phase filtering: "
                        f"{n} samples <= pad {pad}")
    m = n + 2 * pad
    gemms, rows = cascade.layout(m)
    used = -(-m // BLOCK)  # blocks holding a sample
    tail = used * BLOCK - m  # zeros after the last sample in its block
    # One buffer holds each pass's input and, at the end, the output, behind
    # a block of room: a pass's output is written back reversed as whole
    # blocks, and its `tail` responses to the zeros land in that room.
    buf = np.empty(BLOCK + gemms * rows * BLOCK)
    xb = buf[BLOCK:].reshape(gemms, rows, BLOCK)
    w = np.empty((gemms, rows, cascade.gain.shape[1]))
    buf[BLOCK:BLOCK + pad] = x[pad:0:-1]
    buf[BLOCK + pad:BLOCK + pad + n] = x
    buf[BLOCK + pad + n:BLOCK + m] = x[-2:-pad - 2:-1]
    for _ in range(2):
        buf[BLOCK + m:] = 0.0  # the zeros after the samples, which a pass overwrites
        y = cascade(xb, w)
        buf[BLOCK - tail:BLOCK - tail + used * BLOCK].reshape(used, BLOCK)[:] \
            = y[used - 1::-1, ::-1]
    return buf[BLOCK + pad:BLOCK + pad + n]


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
    if not (is_whole(segment_len) and segment_len >= 8):
        raise ValidationError(f"segment_len must be a whole number >= 8, got {segment_len!r}")
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
