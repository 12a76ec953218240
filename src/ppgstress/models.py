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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


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

        Distance ties are broken by training-row order (stable sort).
        """
        X = np.atleast_2d(X)
        d2 = np.sum((X[:, None, :] - self.X[None, :, :]) ** 2, axis=2)
        idx = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
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


def sgd_logistic_fit(X, y, epochs: int = 50, seed: int = 0) -> SgdModel:
    """L2-penalised logistic loss, per-sample gradient steps, decaying rate.

    Seeded shuffling each epoch makes the fit bit-reproducible.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_two_classes(y.astype(int))
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(seed)
    lr0, decay, l2 = SGD_LR0, SGD_DECAY, SGD_L2  # locals for the per-sample loop
    t = 0
    losses = []
    for epoch in range(epochs):
        for i in rng.permutation(n):
            lr = lr0 / (1.0 + t * decay)
            p = _sigmoid(X[i] @ w + b)
            g = p - y[i]
            w -= lr * (g * X[i] + l2 * w)
            b -= lr * g
            t += 1
        p = _sigmoid(X @ w + b)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
                     + 0.5 * l2 * np.sum(w ** 2))
        if not math.isfinite(loss):
            raise DataError(f"SGD diverged (non-finite loss) at epoch {epoch}")
        losses.append(loss)
    return SgdModel(w, b, tuple(losses))


def stress_level(p_stress: float) -> float:
    """Probability -> one-decimal stress level, rounding half away from zero."""
    if not 0.0 <= p_stress <= 1.0:
        raise ValidationError(f"probability out of [0,1]: {p_stress}")
    return math.floor(p_stress * 10.0 + 0.5) / 10.0
