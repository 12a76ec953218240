"""Sequential leave-one-subject-out moments: the reference the batched fold
statistics (`moments.by_group`, `moments.leave_one_out`, `windows.select`) are
checked against.

Each (subject, class) group's moments are taken from its gathered rows with
numpy's plain expressions. A subject's complement is the Chan merge of a
prefix scan and a suffix scan over the other subjects, one group merge at a
time, and each fold is selected and scaled on its own.
"""

from __future__ import annotations

import numpy as np

from ppgstress import windows
from ppgstress.moments import Moments


def of(X) -> Moments:
    """The moments of the rows of X; a constant column's mean is its value."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n == 0:
        return Moments(np.array(0), np.zeros(d), np.zeros((d, d)), np.zeros(d),
                       np.full(d, np.inf), np.full(d, -np.inf))
    lo, hi = X.min(axis=0), X.max(axis=0)
    mean = np.where(lo == hi, lo, X.mean(axis=0))
    c = X - mean
    return Moments(np.array(n), mean, c.T @ c, np.sum(c ** 2, axis=0), lo, hi)


def merge(a: Moments, b: Moments) -> Moments:
    """Chan, Golub & LeVeque's pairwise update: the moments of the union."""
    n = a.n + b.n
    share = b.n / np.maximum(n, 1)
    delta = b.mean - a.mean
    w = a.n * share
    return Moments(
        n, a.mean + delta * share[..., None],
        a.cross + b.cross + w[..., None, None] * (delta[..., :, None] * delta[..., None, :]),
        a.ss + b.ss + w[..., None] * delta ** 2,
        np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi))


def leave_one_out(groups: list[Moments]) -> list[Moments]:
    """For each group, the merge of all others: prefix and suffix scans, joined."""
    empty = Moments(*(np.zeros_like(f) for f in groups[0]))
    empty = Moments(empty.n, empty.mean, empty.cross, empty.ss,
                    np.full_like(empty.lo, np.inf), np.full_like(empty.hi, -np.inf))
    before, after = [empty], [empty]
    for i in range(len(groups) - 1):
        before.append(merge(before[-1], groups[i]))
        after.append(merge(groups[-1 - i], after[-1]))
    return [merge(b, a) for b, a in zip(before, reversed(after))]


def fold_classes(matrix) -> list[Moments]:
    """Each held-out subject's training class moments, (2, ...) per fold."""
    groups = []
    for code in range(len(matrix.subject_ids)):
        rows = matrix.codes == code
        per_class = [of(matrix.X[rows & (matrix.labels == c)]) for c in (0, 1)]
        groups.append(Moments(*(np.stack(f) for f in zip(*per_class))))
    return leave_one_out(groups)


def fold_stats(matrix, k: int) -> list[tuple]:
    """Each fold's (classes, f, cols, mean, std), one fold at a time."""
    return [(classes, *windows.select(classes, k, matrix.columns)[0])
            for classes in fold_classes(matrix)]
