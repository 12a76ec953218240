"""From-scratch classifiers: LDA, KNN and SGD logistic regression.

Each fitted model exposes a stress-membership probability; the rounded
probability doubles as a 0.0-1.0 stress level for adaptive consumers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError

MODEL_KINDS = ("lda", "knn", "sgd")
LDA_RIDGE = 1e-6  # times the mean pooled variance, added to the diagonal
SGD_LR0 = 0.01  # learning rate lr_t = SGD_LR0 / (1 + t * SGD_DECAY)
SGD_DECAY = 1e-4
SGD_L2 = 1e-4  # weight of the L2 penalty
SGD_BLOCK = 64  # SGD steps whose rows are gathered at once
KNN_CHUNK_ROWS = 4  # test rows per broadcast distance block


def _sigmoid(z):
    # np.minimum(np.maximum(...)) is np.clip without its per-call overhead.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def _check_two_classes(y: np.ndarray):
    if set(np.unique(y)) != {0, 1}:
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
    """Pooled-covariance LDA; LDA_RIDGE * trace(cov)/d is added to the diagonal."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_two_classes(y)
    n, d = X.shape
    if n <= d:
        warnings.warn(f"LDA fit with n={n} rows <= d={d} columns; "
                      "estimates may be unstable", stacklevel=2)
    means = np.stack([X[y == g].mean(axis=0) for g in (0, 1)])
    centered = X - means[y]
    cov = centered.T @ centered / (n - 2)
    cov = cov + np.eye(d) * LDA_RIDGE * np.trace(cov) / d
    try:
        w = np.linalg.solve(cov, means[1] - means[0])
    except np.linalg.LinAlgError:
        raise DataError("pooled covariance singular even after ridge") from None
    priors = np.array([np.mean(y == 0), np.mean(y == 1)])
    b = -0.5 * float((means[0] + means[1]) @ w) + math.log(priors[1] / priors[0])
    return LdaModel(w, b)


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int = 5

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Fraction of stress labels among the k nearest training rows.

        Distance ties are broken by training-row order. Test rows are taken
        KNN_CHUNK_ROWS at a time, so the broadcast difference array stays
        small; each row's distances are the same either way.
        """
        X = np.atleast_2d(X)
        k = self.k
        idx = np.empty((len(X), k), dtype=np.intp)
        for lo in range(0, len(X), KNN_CHUNK_ROWS):
            d2 = np.sum((X[lo:lo + KNN_CHUNK_ROWS, None, :] - self.X[None, :, :]) ** 2,
                        axis=2)
            # Candidates: every row not farther than the k-th distance (nan
            # included, as argsort puts it last), in row order; the stable
            # sort by distance keeps that order among ties.
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            row, col = np.nonzero(~(d2 > kth))
            order = np.lexsort((d2[row, col], row))
            first = np.searchsorted(row, np.arange(len(d2)))
            idx[lo:lo + len(d2)] = col[order][first[:, None] + np.arange(k)]
        return self.y[idx].mean(axis=1)


def knn_fit(X, y, k: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_two_classes(y)
    if k < 1 or k > len(y):
        raise ValidationError(f"k must be in [1, n_rows], got {k}")
    return KnnModel(X, y, k)


@dataclass(frozen=True)
class SgdModel:
    weights: np.ndarray
    bias: float
    loss_per_epoch: tuple[float, ...] = ()

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


def sgd_logistic_fit(X, y, epochs: int = 50, seed: int = 0, folds=None):
    """L2-penalised logistic loss, per-sample gradient steps, decaying rate.

    Seeded shuffling each epoch makes the fit bit-reproducible. Without
    `folds`, one `SgdModel` is fitted on X. With `folds`, a sequence of
    `(rows, cols, mean, std)`, fold f is fitted on
    `(X[rows][:, cols] - mean) / std` with labels `y[rows]`, all folds
    stepped together, and their models come back as an `SgdFolds`.
    """
    X = np.asarray(X, dtype=float)
    if folds is not None:
        return SgdFolds(_sgd_fit_folds(X, y, folds, epochs, seed))
    n, d = X.shape
    one = [(np.arange(n), np.arange(d), np.zeros(d), np.ones(d))]
    return _sgd_fit_folds(X, y, one, epochs, seed)[0]


def _sgd_fit_folds(X, y, folds, epochs: int, seed: int) -> list[SgdModel]:
    """Each fold as if fitted alone: its own `default_rng(seed)` permutations,
    step counter, learning rate, losses and divergence check.

    A fold with fewer rows sits out the end of each epoch; one with fewer
    columns is padded with a zero column. Rows are gathered and z-scored
    SGD_BLOCK steps at a time, and a fold's whole z-scored matrix exists
    only while its epoch loss is taken, one fold at a time.
    """
    y = np.asarray(y)
    for rows, *_ in folds:
        _check_two_classes(y[rows])
    y = y.astype(float)
    # Folds by descending row count, so the folds still stepping are a prefix.
    order = sorted(range(len(folds)), key=lambda f: -len(folds[f][0]))
    F = len(order)
    n = np.array([len(folds[f][0]) for f in order])
    N, d = n[0], max(len(f[1]) for f in folds)
    Xz = np.c_[X, np.zeros(len(X))]  # its last column pads short folds
    C = np.full((F, d), X.shape[1])
    M, S = np.zeros((F, 1, d)), np.ones((F, 1, d))
    for j, f in enumerate(order):
        _, cols, mean, std = folds[f]
        C[j, :len(cols)], M[j, 0, :len(cols)], S[j, 0, :len(cols)] = cols, mean, std
    active = np.searchsorted(-n, -np.arange(N)).tolist()  # folds stepping at step i
    rngs = [np.random.default_rng(seed) for _ in order]
    w, b = np.zeros((F, d)), np.zeros(F)
    losses = [[] for _ in folds]
    diverged = {}
    for epoch in range(epochs):
        R = np.zeros((F, N), dtype=np.intp)  # row stepped by each fold at each step
        for j, f in enumerate(order):
            R[j, :n[j]] = np.asarray(folds[f][0])[rngs[j].permutation(n[j])]
        y_now = y[R.T]
        lr = SGD_LR0 / (1.0 + (epoch * n + np.arange(N)[:, None]) * SGD_DECAY)
        for i0 in range(0, N, SGD_BLOCK):
            xb = (Xz[R[:, i0:i0 + SGD_BLOCK, None], C[:, None]] - M) / S
            for i in range(i0, min(i0 + SGD_BLOCK, N)):
                a = active[i]
                x, wa, ba, lr_i = xb[:a, i - i0], w[:a], b[:a], lr[i, :a]
                g = _sigmoid(np.vecdot(x, wa) + ba) - y_now[i, :a]
                wa -= lr_i[:, None] * (g[:, None] * x + SGD_L2 * wa)
                ba -= lr_i * g
        for j, f in enumerate(order):
            rows, cols, mean, std = folds[f]
            wf, yf = w[j, :len(cols)], y[rows]
            p = _sigmoid(((X[np.ix_(rows, cols)] - mean) / std) @ wf + b[j])
            eps = 1e-12
            loss = float(-np.mean(yf * np.log(p + eps) + (1 - yf) * np.log(1 - p + eps))
                         + 0.5 * SGD_L2 * np.sum(wf ** 2))
            if not math.isfinite(loss):
                diverged.setdefault(f, epoch)
            losses[f].append(loss)
    if diverged:
        # The error the first diverging fold would raise when fitted alone.
        raise DataError(f"SGD diverged (non-finite loss) at epoch "
                        f"{diverged[min(diverged)]}")
    slot = {f: j for j, f in enumerate(order)}
    return [SgdModel(w[slot[f], :len(cols)].copy(), float(b[slot[f]]), tuple(losses[f]))
            for f, (_, cols, _, _) in enumerate(folds)]


def stress_level(p_stress: float) -> float:
    """Probability -> one-decimal stress level, rounding half away from zero."""
    if not 0.0 <= p_stress <= 1.0:
        raise ValidationError(f"probability out of [0,1]: {p_stress}")
    return math.floor(p_stress * 10.0 + 0.5) / 10.0
