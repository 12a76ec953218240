"""Materialising LOSO reference: each fold's training rows taken out, ranked,
z-scored and fitted from the rows themselves.

This is the reference `evaluate.fold_stats`, which derives every fold from
per-subject class moments and never gathers an LDA fold's training rows, is
checked against. Each statistic is the plain expression over the rows:
`np.mean`, `np.std(ddof=1)`, the two-group ANOVA F by its textbook sums,
and LDA from the centred training rows. A column with one value over a
fold's training rows gets F = 0 and std 0, and is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ppgstress.errors import DataError
from ppgstress.models import LDA_RIDGE, LdaModel


def anova_f(X, y) -> np.ndarray:
    groups = [X[y == g] for g in (0, 1)]
    grand = np.mean(X, axis=0)
    msb = sum(len(g) * (np.mean(g, axis=0) - grand) ** 2 for g in groups)
    ssw = sum(np.sum((g - np.mean(g, axis=0)) ** 2, axis=0) for g in groups)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = msb / (ssw / (len(X) - 2))
    # Decided from the values, as np.mean of a constant column may round.
    f[np.all([g.min(axis=0) == g.max(axis=0) for g in groups], axis=0)] = np.inf
    f[X.min(axis=0) == X.max(axis=0)] = 0.0
    return f


def lda_fit(X, y) -> LdaModel:
    if set(np.unique(y).tolist()) != {0, 1}:
        raise DataError(f"need both classes present, got labels {np.unique(y)}")
    n, d = X.shape
    means = np.stack([X[y == g].mean(axis=0) for g in (0, 1)])
    centered = X - means[y]
    cov = centered.T @ centered / (n - 2)
    cov = cov + np.eye(d) * LDA_RIDGE * np.trace(cov) / d
    w = np.linalg.solve(cov, means[1] - means[0])
    priors = np.array([np.mean(y == 0), np.mean(y == 1)])
    return LdaModel(w, -0.5 * float((means[0] + means[1]) @ w)
                    + math.log(priors[1] / priors[0]))


@dataclass(frozen=True)
class Fold:
    test_mask: np.ndarray
    f: np.ndarray        # F of every column
    ranked: np.ndarray   # every column, by descending F, ties in column order
    cols: np.ndarray     # the top k, less constant columns
    mean: np.ndarray
    std: np.ndarray
    train_X: np.ndarray  # z-scored training rows of cols
    train_y: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray


def fold_splits(matrix, k: int):
    """Every held-out subject's fold, in subject order."""
    for sid in matrix.subject_ids:
        test_mask = matrix.rows_for(sid)
        X, y = matrix.X[~test_mask], matrix.labels[~test_mask]
        f = anova_f(X, y)
        ranked = np.array(sorted(range(len(f)), key=lambda i: (-f[i], i)))
        top = ranked[:k]
        mean, std = X[:, top].mean(axis=0), X[:, top].std(axis=0, ddof=1)
        keep = X[:, top].min(axis=0) < X[:, top].max(axis=0)
        cols, mean, std = top[keep], mean[keep], std[keep]
        yield Fold(test_mask, f, ranked, cols, mean, std, (X[:, cols] - mean) / std, y,
                   (matrix.X[test_mask][:, cols] - mean) / std, matrix.labels[test_mask])
