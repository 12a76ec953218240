"""From-scratch classifiers: LDA, KNN and SGD logistic regression.

Each fitted model exposes a stress-membership probability; the rounded
probability doubles as a 0.0-1.0 stress level for adaptive consumers.
The folds of a LOSO run are `Fold`s of X, each checked once, where it is
built (`evaluate.fold_stats`); LDA, KNN and SGD all fit them. LDA fits a
fold from its training rows' class moments (`lda_from_moments`).
`sgd_logistic_fit(X, y, folds, seed)` steps every fold together and returns
their models as an `SgdFolds`; `knn_fit(X, y, folds, k)` returns a tuple of
its folds' models, all sharing one filter operand. A single fit on X is the
fold of all its rows and columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dsp, moments
from .errors import (DataError, ValidationError, check_array, check_indices, check_real,
                     check_seed, is_whole)

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
class Fold:
    """The training rows, columns and scaler of one fold of a fit on an X of
    shape `shape`: it trains on `(X[rows][:, cols] - mean) / std`, labels
    `y[rows]`. Building one refuses, with a ValidationError that names the
    field, rows or cols that are not whole numbers indexing such an X,
    repeated cols (KNN's filter weighs each column once) and a mean or std
    that does not hold one value per column."""
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        n, D = self.shape
        object.__setattr__(self, "rows", check_indices(self.rows, "fold rows", n))
        object.__setattr__(self, "cols", check_indices(self.cols, "fold cols", D))
        cols = np.sort(self.cols)
        twice = cols[1:][cols[1:] == cols[:-1]]
        if len(twice):
            raise ValidationError(f"fold cols must be distinct, got {twice[0]} twice")
        for field in ("mean", "std"):
            got = len(check_array(getattr(self, field), f"fold {field}"))
            if got != len(cols):
                raise ValidationError(f"fold {field} must hold one value per column "
                                      f"({len(cols)}), got {got}")

    def check_shape(self, X: np.ndarray):
        if self.shape != X.shape:
            raise ValidationError(f"fold built for X of shape {self.shape}, got shape {X.shape}")


def _check_fit(X, y, folds) -> tuple[np.ndarray, np.ndarray]:
    """X as floats and y, for a fit on `folds`. Refuses an X that is not 2-D,
    a y that is not 1-D with one label per row of X, no folds, a fold built for
    another shape of X (ValidationErrors) and one without both classes (DataError)."""
    X = check_array(X, "X", ndim=2).astype(float, copy=False)
    y = check_array(y, "y")
    if len(y) != len(X):
        raise ValidationError(f"y must hold one label per row of X ({len(X)}), got {len(y)}")
    if not len(folds):
        raise ValidationError("need at least one fold")
    for fold in folds:
        fold.check_shape(X)
        _check_two_classes(y[fold.rows])
    return X, y


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
    """The k-nearest-neighbour model of one `Fold` of X, from a `knn_fit`: it
    trains on the fold's rows of X (a set; ties are broken by row order in X),
    restricted to its columns and z-scored by its mean and std. The folds of
    one fit share X, y and `operand`, which is `knn_operand(X)`. Building the
    model refuses a fold built for another shape of X and a k that is not a
    whole number from 1 to the fold's count of distinct rows."""
    X: np.ndarray
    y: np.ndarray
    k: int
    fold: Fold
    operand: KnnOperand

    def __post_init__(self):
        self.fold.check_shape(self.X)
        k = self.k
        if not is_whole(k) or not 1 <= k <= np.count_nonzero(np.bincount(self.fold.rows)):
            raise ValidationError(f"k must be an integer in [1, n_rows], got {k!r}")

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
        rows, cols, mean, std = self.fold.rows, self.fold.cols, self.fold.mean, self.fold.std
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
    """The k-nearest-neighbour models of the `Fold`s of X, in fold order,
    which share one centred copy of X as their filter operand (`KnnModel`)."""
    X, y = _check_fit(X, y, folds)
    operand = knn_operand(X)
    return tuple(KnnModel(X, y, k, fold, operand) for fold in folds)


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

    Each `Fold` of X is fitted on its z-scored rows, as if alone: its own
    `default_rng(seed)` permutations, step counter, learning rate, losses
    and divergence check.

    Row f of V is fold f's weights, then its bias on a column of ones. Within
    a block of SGD_BLOCK steps the weights are s_t * V, s_t the product of the
    L2 shrinks 1 - lr * SGD_L2 so far (Bottou, "Stochastic Gradient Descent
    Tricks", 2012), so a step is a dot product, a sigmoid and a rank-1 update.
    The sigmoid is 0.5 + 0.5 tanh(m / 2): the block's rows a and updates u
    hold the exact factors 0.5, so a step is g = tanh(a . V) + 1 - 2y and
    V -= g u, five ufunc calls that write into buffers made once per fit.
    After its rows, a fold steps its first row at rate 0 to the end of the
    epoch's last block; one with fewer columns is padded with zero columns.
    Epoch e's loss takes a decision matrix from epoch e+1's z-scored blocks
    and epoch e's weights, so only a fold's own rows and columns reach it.

    Every row of X is z-scored once per fit, as each fold scales it, into a
    copy of n F (d + 1) floats: n rows of X, F folds, the widest fold's d
    columns and the bias. That is 7.9 MB for a 16-subject LOSO of 2208
    rows and 27 columns, and about 127 MB for 64 subjects. A block of steps
    then gathers whole rows of that copy in one `np.take`, whose "clip"
    mode writes straight into the reused block where the default mode
    would buffer a copy; clipping never moves an index, because every fold
    was built for X, so its rows lie within X.
    """
    check_seed(seed)
    X, y = _check_fit(X, y, folds)
    y = y.astype(float)
    F, D, d = len(folds), X.shape[1], max(len(fold.cols) for fold in folds)
    n = np.array([len(fold.rows) for fold in folds])
    N = -(-n.max() // SGD_BLOCK) * SGD_BLOCK  # steps per epoch, in whole blocks
    Xz = np.c_[X, np.zeros(len(X)), np.ones(len(X))]  # pads short folds; the bias
    C, M, S = np.full((F, d + 1), D), np.zeros((F, d + 1)), np.ones((F, d + 1))
    C[:, -1] = D + 1
    for f, fold in enumerate(folds):
        d_f = len(fold.cols)
        C[f, :d_f], M[f, :d_f], S[f, :d_f] = fold.cols, fold.mean, fold.std
    Z = np.take(Xz, C, axis=1)  # (rows of X, F, d + 1): row r as fold f scales it
    Z -= M
    Z /= S
    Z, lane = Z.reshape(-1, d + 1), np.arange(F)
    sign = 1.0 - 2.0 * y
    V, rngs = np.zeros((F, d + 1)), [np.random.default_rng(seed) for _ in folds]
    R, i = np.tile([fold.rows[0] for fold in folds], (N, 1)), np.arange(N)[:, None]
    # Reused, as fresh block-sized arrays page-fault: a block's rows and
    # updates, its label signs, and a step's g and g u.
    a, u = np.empty((2, SGD_BLOCK, F, d + 1))
    c, g, gu = np.empty((SGD_BLOCK, F, 1)), np.empty((F, 1)), np.empty((F, d + 1))
    steps, g1 = tuple(zip(a, u, c)), g[:, 0]
    vecdot, tanh, multiply = np.vecdot, np.tanh, np.multiply
    z, loss = np.empty((N, F)), np.empty((F, SGD_EPOCHS))

    def zscored(rb):  # each fold's rows rb[:, f], z-scored, into a
        return np.take(Z, rb * F + lane, axis=0, out=a, mode="clip")

    for epoch in range(SGD_EPOCHS + 1):  # pass e steps epoch e, takes epoch e-1's loss
        for f, fold in enumerate(folds):
            R[:n[f], f] = fold.rows[rngs[f].permutation(n[f])]  # fold f's row at each step
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
            c[..., 0] = sign[rb]
            for a_i, u_i, c_i in steps:
                vecdot(a_i, V, out=g1)
                tanh(g, out=g)
                g += c_i
                V -= multiply(g, u_i, out=gu)
            V[:, :-1] *= s[-1][:, None]
        if epoch:
            p = _sigmoid(z)
            ll = np.where(i < n, np.log(np.where(y[R] == 1, p, 1 - p) + 1e-12), 0.0)
            loss[:, epoch - 1] = 0.5 * SGD_L2 * (V0[:, :-1] ** 2).sum(1) - ll.sum(0) / n
    bad = np.argwhere(~np.isfinite(loss))
    if len(bad):  # the error the first diverging fold would raise when fitted alone
        raise DataError(f"SGD diverged (non-finite loss) at epoch {bad[0, 1]}")
    return SgdFolds(tuple(
        SgdModel(V[f, :len(fold.cols)].copy(), float(V[f, -1]), tuple(loss[f].tolist()))
        for f, fold in enumerate(folds)))


def stress_level(p_stress: float) -> float:
    """Probability -> one-decimal stress level, rounding half away from zero."""
    p = check_real(p_stress, "probability")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability out of [0,1]: {p_stress}")
    return math.floor(p * 10.0 + 0.5) / 10.0
