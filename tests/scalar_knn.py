"""Brute-force KNN reference: every test row's distance to every training row.

This is the reference `models.KnnModel.predict_proba`, which measures exact
distances only for the candidates a BLAS filter leaves, is checked against.
Each distance is `np.sum((t - x) ** 2)` over a broadcast difference array,
a few test rows at a time; the k smallest are taken with ties broken by
training-row order and nan last.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 4  # test rows per broadcast difference array


def knn_indices(X_train, X_test, k: int) -> np.ndarray:
    """The k nearest training rows of each test row, nearest first."""
    X_train = np.asarray(X_train, dtype=float)
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    idx = np.empty((len(X_test), k), dtype=np.intp)
    for lo in range(0, len(X_test), CHUNK_ROWS):
        d2 = np.sum((X_test[lo:lo + CHUNK_ROWS, None, :] - X_train[None, :, :]) ** 2,
                    axis=2)
        # Candidates: every row not farther than the k-th distance (nan
        # included, as argsort puts it last), in row order; the stable
        # sort by distance keeps that order among ties.
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        row, col = np.nonzero(~(d2 > kth))
        order = np.lexsort((d2[row, col], row))
        first = np.searchsorted(row, np.arange(len(d2)))
        idx[lo:lo + len(d2)] = col[order][first[:, None] + np.arange(k)]
    return idx
