"""From-scratch classifiers: LDA, KNN and SGD logistic regression.

Each fitted model exposes a stress-membership probability; the rounded
probability doubles as a 0.0-1.0 stress level for adaptive consumers.
SGD has one fit, `sgd_logistic_fit(X, y, folds, seed)`, which steps every
fold of a LOSO run together and returns their models as an `SgdFolds`; a
single fit is its one-fold case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dsp, moments
from .errors import DataError, ValidationError, check_seed, is_whole

MODEL_KINDS = ("lda", "knn", "sgd")
LDA_RIDGE = 1e-6  # times the mean pooled variance, added to the diagonal
SGD_LR0 = 0.01  # learning rate lr_t = SGD_LR0 / (1 + t * SGD_DECAY)
SGD_DECAY = 1e-4
SGD_L2 = 1e-4  # weight of the L2 penalty
SGD_EPOCHS = 50  # passes over each fold's rows
SGD_BLOCK = 64  # SGD steps whose rows are gathered and scaled at once
KNN_CHUNK_ROWS = 64  # test rows per filter matmul, a (rows, n_train) block
_KNN_SCALE_CAP = np.finfo(float).max / 16  # larger |t|^2 + |x|^2 may overflow


def _sigmoid(x):
    """The logistic function, 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    below: no overflow, full relative precision in both tails, and nan
    passes through without a warning."""
    e = np.exp(-np.abs(x))
    return np.where(np.greater_equal(x, 0), 1.0, e) / (1.0 + e)


def _check_two_classes(y: np.ndarray):
    # Not np.unique: its first call imports numpy.ma, about 1 MB that stays.
    if set(np.ravel(y).tolist()) != {0, 1}:
        raise DataError(f"need both classes present, got labels {np.unique(y)}")


@dataclass(frozen=True)
class LdaModel:
    weights: np.ndarray  # (d,)
    bias: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X) @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        # Logistic of the Gaussian log-odds: exact under the LDA model.
        return _sigmoid(self.decision(X))


def lda_fit(X, y) -> LdaModel:
    """Pooled-covariance LDA of the rows of X (`lda_from_moments` of its classes)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_two_classes(y)
    classes = moments.by_class(X, y)
    return lda_from_moments(classes.n, classes.mean, classes.cross.sum(axis=0))


def lda_from_moments(n, means, scatter) -> LdaModel:
    """LDA from the class row counts n (2,), class means (2, d) and the pooled
    within-class scatter (d, d): the covariance is scatter / (n0 + n1 - 2),
    plus LDA_RIDGE * trace(cov)/d on the diagonal."""
    rows, d = int(np.sum(n)), means.shape[1]
    if rows <= d:
        warnings.warn(f"LDA fit with n={rows} rows <= d={d} columns; "
                      "estimates may be unstable", stacklevel=3)
    cov = scatter / (rows - 2)
    cov = cov + np.eye(d) * LDA_RIDGE * np.trace(cov) / d
    try:
        w = np.linalg.solve(cov, means[1] - means[0])
    except np.linalg.LinAlgError:
        raise DataError("pooled covariance singular even after ridge") from None
    b = -0.5 * float((means[0] + means[1]) @ w) + math.log(n[1] / n[0])
    return LdaModel(w, b)


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int = 5

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Fraction of stress labels among the k nearest training rows.

        The k nearest are the k smallest squared distances
        E_j = `np.sum((t - x_j) ** 2)`, ties broken by training-row order and
        nan last. A BLAS filter bounds them, and distances are computed exactly
        only where the filter cannot decide, so the result is exact.

        Filter: for KNN_CHUNK_ROWS test rows at a time, [T, 1] times
        [-2X, |x|^2]^T gives a_j = |x_j|^2 - 2 t.x_j, the distance less |t|^2,
        which is the same for every j and so is left out. The product is one
        batched matmul over blocks of training rows, each a GEMM of at most
        dsp.GEMM_MACS multiply-adds, which OpenBLAS (at its default threshold)
        runs on one thread. A threaded GEMM this short waits on its slowest
        thread: with another process busy on one of two CPUs, threaded
        filters took twice as long. The minima of k+1 disjoint column blocks
        are values of k+1 different rows, so their largest is at least the
        (k+1)-th smallest a_j; the rows at or below it are sorted by a_j.
        (With k = n every block is one row.)

        Bound: with u = eps/2, an m-term dot product is off by at most
        gamma_m = m u / (1 - m u) times the sum of its terms' magnitudes, in
        any summation order. a_j has d+1 terms and |x_j|^2 has d, and
        2 sum_i |t_i x_ji| <= |t|^2 + |x_j|^2, so a_j + |t|^2 is within
        3 gamma_(d+1) (1 + gamma_d) (|t|^2 + |x_j|^2) of the true distance D_j.
        E_j rounds a difference and a square per term and sums d non-negative
        terms, and D_j <= 2 (|t|^2 + |x_j|^2), so E_j is within
        2 gamma_(d+2) (|t|^2 + |x_j|^2) of D_j. Together that is about
        (2.5 d + 3.5) eps (|t|^2 + |x_j|^2), and the slack
            S = 4 (d + 2) eps (|t|^2 + max_j |x_j|^2) + d tiny
        exceeds it with room for the rounding of S and of the threshold;
        `tiny`, the smallest normal float, covers products that underflow.
        Where |t|^2 + max_j |x_j|^2 is above max/16 or is not finite (overflow,
        nan, inf), S is inf and every row is measured exactly.

        Selection: let a_(k) be the k-th smallest a_j. The k rows with
        a_j <= a_(k) have E_j <= a_(k) + |t|^2 + S, so the k-th smallest E_j
        is no larger, and every row the exact rule can select has
        a_j <= a_(k) + 2S. If the (k+1)-th smallest a_j is above that, the k
        filter rows are the k nearest. Otherwise every row within it, nan
        included, is measured exactly and sorted stably by distance.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n, d = self.X.shape
        if X.ndim != 2 or X.shape[1] != d:
            raise ValidationError(f"test rows need {d} columns, got shape {X.shape}")
        k, f64 = self.k, np.finfo(float)
        near = min(k + 1, n)  # smallest a_j kept per row: the k, and one to check
        with np.errstate(over="ignore", invalid="ignore"):
            xx = np.sum(self.X ** 2, axis=1)
            W = np.empty((n, d + 1))  # [-2X, |x|^2], filled in place: np.c_ copies slowly
            np.multiply(self.X, -2.0, out=W[:, :d])
            W[:, d] = xx
            scale = np.sum(X ** 2, axis=1) + xx.max()
            slack = 4 * (d + 2) * f64.eps * scale + d * f64.tiny
            slack[~(scale <= _KNN_SCALE_CAP)] = np.inf
        T = np.c_[X, np.ones(len(X))]
        per_gemm = max(1, dsp.GEMM_MACS // (KNN_CHUNK_ROWS * (d + 1)))  # training rows
        gemms = n // per_gemm
        split = gemms * per_gemm  # rows from here on make one last, smaller GEMM
        blocked = W[:split].reshape(gemms, per_gemm, d + 1).transpose(0, 2, 1)
        buf = np.empty((min(len(X), KNN_CHUNK_ROWS), n))  # reused: fresh blocks page-fault
        idx = np.empty((len(X), k), dtype=np.intp)
        for lo in range(0, len(X), KNN_CHUNK_ROWS):
            t = T[lo:lo + KNN_CHUNK_ROWS]
            a = buf[:len(t)]
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(t, blocked, out=a[:, :split].reshape(
                    len(t), gemms, per_gemm).transpose(1, 0, 2))
                np.matmul(t, W[split:].T, out=a[:, split:])
                blocks = a[:, :n // near * near].reshape(len(t), near, -1)
                top = blocks.min(axis=2).max(axis=1)
                flat = np.flatnonzero(~(a > top[:, None]))
                row, col = np.divmod(flat, n)
                order = np.lexsort((a.ravel()[flat], row))
                first = np.searchsorted(row, np.arange(len(t)))
                pos = order[first[:, None] + np.arange(near)]
                vals = a.ravel()[flat[pos]]
                idx[lo:lo + len(t)] = col[pos[:, :k]]
                thr = vals[:, k - 1] + 2 * slack[lo:lo + len(t)]
                undecided = ~(vals[:, k] > thr) if k < n else []
            for i in np.flatnonzero(undecided):
                c = np.flatnonzero(~(a[i] > thr[i]))
                d2 = np.sum((X[lo + i] - self.X[c]) ** 2, axis=1)
                idx[lo + i] = c[np.argsort(d2, kind="stable")[:k]]
        return self.y[idx].mean(axis=1)


def knn_fit(X, y, k: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_two_classes(y)
    if not is_whole(k) or k < 1 or k > len(y):
        raise ValidationError(f"k must be an integer in [1, n_rows], got {k!r}")
    return KnnModel(X, y, k)


@dataclass(frozen=True)
class SgdModel:
    weights: np.ndarray
    bias: float
    loss_per_epoch: tuple[float, ...]

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X) @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(X))


@dataclass(frozen=True)
class SgdFolds:
    """The SGD models of folds fitted together, in fold order."""
    models: tuple[SgdModel, ...]

    @property
    def loss_per_epoch(self) -> tuple[tuple[float, ...], ...]:
        """Every fold's loss after each epoch."""
        return tuple(zip(*(m.loss_per_epoch for m in self.models)))


def sgd_logistic_fit(X, y, folds, seed: int = 0) -> SgdFolds:
    """L2-penalised logistic loss, per-sample gradient steps, decaying rate,
    SGD_EPOCHS epochs; seeded shuffling each epoch makes the fit
    bit-reproducible.

    `folds` is a sequence of `(rows, cols, mean, std)`: fold f is fitted on
    `(X[rows][:, cols] - mean) / std` with labels `y[rows]`, as if alone:
    its own `default_rng(seed)` permutations, step counter, learning rate,
    losses and divergence check. A single fit on X is the one fold
    `(all rows, all columns, zeros, ones)`.

    Row f of V is fold f's weights, then its bias on a column of ones. Within
    a block of SGD_BLOCK steps the weights are s_t * V, s_t the product of the
    L2 shrinks 1 - lr * SGD_L2 so far (Bottou, "Stochastic Gradient Descent
    Tricks", 2012), so a step is a dot product, a sigmoid and a rank-1 update.
    The sigmoid is 0.5 + 0.5 tanh(m / 2): the block's rows a and updates u
    hold the exact factors 0.5, so a step is g = tanh(a . V) + 1 - 2y and
    V -= g u, five ufunc calls.
    After its rows, a fold steps its first row at rate 0 to the end of the
    epoch's last block; one with fewer columns is padded with zero columns.
    Epoch e's loss takes a decision matrix from epoch e+1's z-scored blocks
    and epoch e's weights, so only a fold's own rows and columns reach it.
    """
    check_seed(seed)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    rows = [np.asarray(r) for r, *_ in folds]
    for r in rows:
        _check_two_classes(y[r])
    y = y.astype(float)
    F, D, d = len(folds), X.shape[1], max(len(cols) for _, cols, *_ in folds)
    n = np.array([len(r) for r in rows])
    N = -(-n.max() // SGD_BLOCK) * SGD_BLOCK  # steps per epoch, in whole blocks
    Xz = np.c_[X, np.zeros(len(X)), np.ones(len(X))]  # pads short folds; the bias
    C, M, S = np.full((F, d + 1), D), np.zeros((F, d + 1)), np.ones((F, d + 1))
    C[:, -1] = D + 1
    for f, (_, cols, mean, std) in enumerate(folds):
        C[f, :len(cols)], M[f, :len(cols)], S[f, :len(cols)] = cols, mean, std
    V, rngs = np.zeros((F, d + 1)), [np.random.default_rng(seed) for _ in folds]
    R, i = np.tile([r[0] for r in rows], (N, 1)), np.arange(N)[:, None]
    # Reused, as fresh block-sized arrays (np.take's default mode makes one) page-fault.
    idx, z = np.empty((SGD_BLOCK, F, d + 1), dtype=np.intp), np.empty((N, F))
    a, u = np.empty((2, SGD_BLOCK, F, d + 1))
    loss = np.empty((F, SGD_EPOCHS))

    def zscored(rb):  # each fold's rows rb[:, f], z-scored, into a
        np.take(Xz, np.add(rb[..., None] * (D + 2), C, out=idx), out=a, mode="clip")
        return np.divide(np.subtract(a, M, out=a), S, out=a)

    for epoch in range(SGD_EPOCHS + 1):  # pass e steps epoch e, takes epoch e-1's loss
        for f, r in enumerate(rows):
            R[:n[f], f] = r[rngs[f].permutation(n[f])]  # fold f's row at each step
        lr = np.where(i < n, SGD_LR0 / (1.0 + (epoch * n + i) * SGD_DECAY), 0.0)
        V0 = V.copy()  # the weights after epoch e-1
        for rb, lb, zb in zip(*(A.reshape(-1, SGD_BLOCK, F) for A in (R, lr, z))):
            np.vecdot(zscored(rb), V0, out=zb)
            if epoch == SGD_EPOCHS:
                continue
            s = np.cumprod(1.0 - lb * SGD_L2, axis=0)  # weight scale after each step
            np.multiply(a, (0.5 * lb / s)[..., None], out=u)
            u[..., -1] = 0.5 * lb
            a[0] *= 0.5
            a[1:] *= 0.5 * s[:-1, :, None]
            a[..., -1] = 0.5
            for a_i, u_i, c_i in zip(a, u, 1.0 - 2.0 * y[rb]):
                g = np.tanh(np.vecdot(a_i, V))
                g += c_i
                V -= g[:, None] * u_i
            V[:, :-1] *= s[-1][:, None]
        if epoch:
            p = _sigmoid(z)
            ll = np.where(i < n, np.log(np.where(y[R] == 1, p, 1 - p) + 1e-12), 0.0)
            loss[:, epoch - 1] = 0.5 * SGD_L2 * (V0[:, :-1] ** 2).sum(1) - ll.sum(0) / n
    bad = np.argwhere(~np.isfinite(loss))
    if len(bad):  # the error the first diverging fold would raise when fitted alone
        raise DataError(f"SGD diverged (non-finite loss) at epoch {bad[0, 1]}")
    return SgdFolds(tuple(
        SgdModel(V[f, :len(c)].copy(), float(V[f, -1]), tuple(loss[f].tolist()))
        for f, (_, c, _, _) in enumerate(folds)))


def stress_level(p_stress: float) -> float:
    """Probability -> one-decimal stress level, rounding half away from zero."""
    if not 0.0 <= p_stress <= 1.0:
        raise ValidationError(f"probability out of [0,1]: {p_stress}")
    return math.floor(p_stress * 10.0 + 0.5) / 10.0
