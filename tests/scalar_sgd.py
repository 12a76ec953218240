"""Per-sample SGD reference: one fold fitted one step at a time.

This is the reference `models.sgd_logistic_fit`, which steps every fold's
weights together, is checked against. It is the plain loop: a seeded
permutation each epoch, one gradient step per row, the loss over all rows
after each epoch.
"""

from __future__ import annotations

import math

import numpy as np

from ppgstress.errors import DataError
from ppgstress.models import (SGD_DECAY, SGD_L2, SGD_LR0, SgdModel, _check_two_classes,
                              _sigmoid)


def sgd_logistic_fit(X, y, epochs: int = 50, seed: int = 0) -> SgdModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _check_two_classes(y)
    y = y.astype(float)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    losses = []
    for epoch in range(epochs):
        for i in rng.permutation(n):
            lr = SGD_LR0 / (1.0 + t * SGD_DECAY)
            p = _sigmoid(X[i] @ w + b)
            g = p - y[i]
            w -= lr * (g * X[i] + SGD_L2 * w)
            b -= lr * g
            t += 1
        p = _sigmoid(X @ w + b)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
                     + 0.5 * SGD_L2 * np.sum(w ** 2))
        if not math.isfinite(loss):
            raise DataError(f"SGD diverged (non-finite loss) at epoch {epoch}")
        losses.append(loss)
    return SgdModel(w, b, tuple(losses))
