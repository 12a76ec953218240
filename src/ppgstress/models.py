"""From-scratch classifiers: LDA, KNN and SGD logistic regression.

Each fitted model exposes a stress-membership probability; the rounded
probability doubles as a 0.0-1.0 stress level for adaptive consumers.
SGD has one fit, `sgd_logistic_fit(X, y, folds, seed)`, which steps every
fold of a LOSO run together and returns their models as an `SgdFolds`; a
single fit is its one-fold case. KNN likewise has one fit,
`knn_fit(X, y, folds, k)`, which returns a tuple of its folds' models, all
sharing one filter operand; a single fit is its one-fold case too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dsp, moments
from .errors import DataError, ValidationError, check_real, check_seed, is_whole

MODEL_KINDS = ("lda", "knn", "sgd")
LDA_RIDGE = 1e-6  # times the mean pooled variance, added to the diagonal
SGD_LR0 = 0.01  # learning rate lr_t = SGD_LR0 / (1 + t * SGD_DECAY)
SGD_DECAY = 1e-4
SGD_L2 = 1e-4  # weight of the L2 penalty
SGD_EPOCHS = 50  # passes over each fold's rows
SGD_BLOCK = 64  # SGD steps whose rows are gathered and scaled at once
KNN_CHUNK_ROWS = 64  # test rows per filter matmul, a (rows, n) block over every operand row
_KNN_SCALE_CAP = np.finfo(float).max / 16  # larger |v|^2 + |c|^2 may overflow


def _sigmoid(x):
    """The logistic function, 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    below: no overflow, full relative precision in both tails, and nan
    passes through without a warning."""
    e = np.exp(-np.abs(x))
    return np.where(np.greater_equal(x, 0), 1.0, e) / (1.0 + e)


def _check_two_classes(y: np.ndarray):
    # Not np.unique: its first call imports numpy.ma, about 1 MB that stays.
    y = np.ravel(y)
    zero, one = y == 0, y == 1
    if not (zero.any() and one.any() and np.all(zero | one)):
        raise DataError(f"need both classes present, got labels {np.unique(y)}")


@dataclass(frozen=True)
class _Linear:
    """A linear decision and its logistic, LDA's and SGD's. Neither model may
    subclass the other: `perfbench` would record its predictions twice."""
    weights: np.ndarray  # (d,)
    bias: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X) @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(X))


@dataclass(frozen=True)
class LdaModel(_Linear):
    """Its decision is the Gaussian log-odds: the probability is exact under LDA."""


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


def zscore(X, rows, cols, mean, std) -> np.ndarray:
    """`(X[rows][:, cols] - mean) / std`, a fold's z-scored rows."""
    Z = X[rows][:, cols].astype(float, copy=False)  # faster than np.ix_
    Z -= mean
    Z /= std
    return Z


class KnnOperand(NamedTuple):
    """The filter operand that the folds of one KNN fit share."""
    mean: np.ndarray  # (D,) column means of every row of X
    W: np.ndarray     # (n, D + 1): X - mean, then the predicting fold's norms
    sq: np.ndarray    # (n, D): (X - mean) ** 2


def knn_operand(X) -> KnnOperand:
    """X centred once on its column means, for the filters of every fold."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    W = np.empty((n, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0) if n else np.zeros(d)
        np.subtract(X, mean, out=W[:, :d])
        return KnnOperand(mean, W, W[:, :d] ** 2)


@dataclass(frozen=True)
class KnnModel:
    """The k-nearest-neighbour model of one fold of a `knn_fit`: it trains on
    the rows `rows` of X (a set; ties are broken by row order in X), restricted
    to the columns `cols` and z-scored by `mean` and `std`, where `fold` is
    `(rows, cols, mean, std)`. The folds of one fit share X, y and `operand`,
    which is `knn_operand(X)`."""
    X: np.ndarray
    y: np.ndarray
    k: int
    fold: tuple
    operand: KnnOperand

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Fraction of stress labels among the k nearest training rows of the
        test rows X, which are z-scored like the fold's training rows.

        The k nearest are the k smallest squared distances
        E_j = `np.sum((t - z_j) ** 2)` from a test row t to the z-scored
        training rows z_j = (x_j - mean) / std, ties broken by row order and
        nan last. A BLAS filter bounds them, and distances are computed exactly
        only where the filter cannot decide, so the result is exact.

        Filter: let mu be the column means of every row of X, the operand's
        centre, s the fold's std, w = 1/s^2 on the fold's columns and 0 on the
        others, d = (mean - mu)/s and |y|^2_w = sum_i w_i y_i^2. With
        c_j = (x_j - mu)/s and the test row recentred on mu, v = t + d, it is
        v - c_j = t - (x_j - mean)/s, so the exact distance is |v - c_j|^2.
        For KNN_CHUNK_ROWS test rows at a time, [-2 v/s, 1] times the operand
        [x_j - mu, |x_j - mu|^2_w]^T gives a_j = |c_j|^2 - 2 v.c_j, the
        distance less |v|^2, which is the same for every j and so is left
        out. The operand's first D columns are centred once for every fold;
        each fold writes its own norms |x_j - mu|^2_w, the product of
        (x_j - mu)^2 and w, into its last column before filtering, so the folds
        of one fit are predicted one at a time. The product is one batched
        matmul over blocks of rows, each a GEMM of at most dsp.GEMM_MACS
        multiply-adds, which OpenBLAS (at its default threshold) runs on one
        thread; the norms are one GEMV per block, smaller still. A threaded
        GEMM this short waits on its slowest thread: with another process
        busy on one of two CPUs, threaded filters took twice as long. The
        test rows are laid out column-major, for which these GEMMs ran about
        1.6 times faster than on row-major chunks. The rows outside the fold
        get a_j = +inf. The minima of k+1
        disjoint column blocks are values of k+1 different rows, so their
        largest is at least the (k+1)-th smallest training a_j, or +inf; the
        rows at or below it are sorted by a_j.

        Bound: with u = eps/2, an m-term dot product is off by at most
        gamma_m = m u / (1 - m u) times the sum of its terms' magnitudes, in
        any summation order, and 2 sum_i |p_i q_i| <= |p|^2 + |q|^2. D is the
        operand's width, and the fold's columns are at most D.
        - Centring and weighting: x_j - mu, its square, 1/s, w and their
          products round, so the operand's norm is within gamma_(D+5) |c_j|^2
          of |c_j|^2; v and -2 v/s carry the rounding of d, of the sum and of
          the factor, at most u |v_i| + gamma_2 |d_i| per column. Together with
          the centring of x_j these move a_j by about
          u (4 |v|^2 + 6 |c_j|^2 + 2 |d|^2), and the GEMM, D+1 terms, by
          gamma_(D+1) (|v|^2 + 2 |c_j|^2).
        - E_j measures the rounded z_j, two roundings per column from the
          exact (x_j - mean)/s, which moves the distance by at most
          2u (|t|^2 + 3 |z_j|^2), and E_j itself rounds a difference and a
          square per term and sums them, within 2 gamma_(D+2) (|t|^2 + |z_j|^2).
        With |t|^2 <= 2 |v|^2 + 2 |d|^2 and |z_j|^2 <= 2 |c_j|^2 + 2 |d|^2,
        a_j + |v|^2 is within about (4 D + 17) eps (|v|^2 + |c_j|^2 + |d|^2) of
        E_j. The term |d|^2 = |mean - mu|^2_w is the fold's mean's distance
        from the operand's centre. The slack
            S = 8 (D + 5) eps (|v|^2 + max_j |x_j - mu|^2_w + |d|^2) + D tiny
        exceeds it with room for the rounding of S and of the threshold;
        `tiny`, the smallest normal float, covers products that underflow.
        Where that scale is above max/16 or is not finite (overflow, nan, inf),
        or some 1/s is below `tiny` (w loses its precision), S is inf and
        every row is measured exactly.

        Selection: let a_(k) be the k-th smallest training a_j. The k rows with
        a_j <= a_(k) have E_j <= a_(k) + |v|^2 + S, so the k-th smallest E_j
        is no larger, and every row the exact rule can select has
        a_j <= a_(k) + 2S. If the (k+1)-th smallest a_j is above that, the k
        filter rows are the k nearest; their a_j are then finite, so none is
        outside the fold. Otherwise every training row within it, nan
        included, is z-scored, measured exactly and sorted stably by distance.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows, cols, mean, std = self.fold
        mu, W, sq = self.operand
        n, D = sq.shape
        if X.ndim != 2 or X.shape[1] != len(cols):
            raise ValidationError(f"test rows need {len(cols)} columns, got shape {X.shape}")
        train = np.zeros(n, dtype=bool)
        train[rows] = True
        held = np.flatnonzero(~train)
        k, n_train, f64 = self.k, n - len(held), np.finfo(float)
        near = min(k + 1, n_train)  # smallest a_j kept per row: the k, and one to check
        per_gemm = max(1, dsp.GEMM_MACS // (KNN_CHUNK_ROWS * (D + 1)))  # operand rows
        gemms = n // per_gemm
        split = gemms * per_gemm  # rows from here on make one last, smaller GEMM
        blocked = W[:split].reshape(gemms, per_gemm, D + 1).transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inv = 1.0 / std
            w = np.zeros(D)
            w[cols] = inv ** 2
            q = np.empty(n)  # the fold's norms, a GEMV per block of rows: one thread
            np.matmul(sq[:split].reshape(gemms, per_gemm, D), w,
                      out=q[:split].reshape(gemms, per_gemm))
            np.matmul(sq[split:], w, out=q[split:])
            W[:, D] = q
            shift = (mean - mu[cols]) * inv
            V = X + shift
            T = np.zeros((len(X), D + 1), order="F")
            T[:, cols] = V * (-2.0 * inv)
            T[:, D] = 1.0
            scale = np.sum(V ** 2, axis=1) + np.max(q) + np.sum(shift ** 2)
            slack = 8 * (D + 5) * f64.eps * scale + D * f64.tiny
            slack[~(scale <= _KNN_SCALE_CAP) | ~np.all(np.abs(inv) >= f64.tiny)] = np.inf
        buf = np.empty((min(len(X), KNN_CHUNK_ROWS), n))  # reused: fresh blocks page-fault
        idx = np.empty((len(X), k), dtype=np.intp)
        for lo in range(0, len(X), KNN_CHUNK_ROWS):
            t = T[lo:lo + KNN_CHUNK_ROWS]
            a = buf[:len(t)]
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(t, blocked, out=a[:, :split].reshape(
                    len(t), gemms, per_gemm).transpose(1, 0, 2))
                np.matmul(t, W[split:].T, out=a[:, split:])
                a[:, held] = np.inf
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
                undecided = ~(vals[:, k] > thr) if k < n_train else ~(thr < np.inf)
            for i in np.flatnonzero(undecided):
                c = np.flatnonzero(~(a[i] > thr[i]) & train)
                d2 = np.sum((X[lo + i] - zscore(self.X, c, cols, mean, std)) ** 2, axis=1)
                idx[lo + i] = c[np.argsort(d2, kind="stable")[:k]]
        return self.y[idx].mean(axis=1)


def knn_fit(X, y, folds, k: int = 5) -> tuple[KnnModel, ...]:
    """The k-nearest-neighbour models of the folds of X, in fold order, which
    share one centred copy of X as their filter operand (`KnnModel`).

    `folds` is a sequence of `(rows, cols, mean, std)`, as for
    `sgd_logistic_fit`: fold f trains on `(X[rows][:, cols] - mean) / std`
    with labels `y[rows]`. A single fit on X is the one fold
    `(all rows, all columns, zeros, ones)`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    for rows, *_ in folds:
        _check_two_classes(y[rows])
        train = np.zeros(len(y), dtype=bool)
        train[rows] = True
        if not is_whole(k) or k < 1 or k > np.count_nonzero(train):
            raise ValidationError(f"k must be an integer in [1, n_rows], got {k!r}")
    operand = knn_operand(X)
    return tuple(KnnModel(X, y, k, spec, operand) for spec in folds)


@dataclass(frozen=True)
class SgdModel(_Linear):
    loss_per_epoch: tuple[float, ...]


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
    p = check_real(p_stress, "probability")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability out of [0,1]: {p_stress}")
    return math.floor(p * 10.0 + 0.5) / 10.0
