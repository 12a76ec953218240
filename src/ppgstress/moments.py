"""Row count, column means and centred cross-products of groups of rows.

Two groups' moments merge into those of their union without revisiting a
row (Chan, Golub & LeVeque, "Updating formulae and a pairwise algorithm for
computing sample variances", 1979): with n = n_a + n_b and
delta = mean_b - mean_a,

    mean  = mean_a + delta n_b / n
    cross = cross_a + cross_b + outer(delta, delta) n_a n_b / n

Nothing is subtracted, so no precision cancels. The per-column sums of
squares are kept beside `cross`, merged the same way, because a GEMM's
diagonal may round differently for two equal columns. A group whose column
is constant has that value as its exact mean, so its deviations, sums of
squares and cross-products are exactly 0, and stay 0 under merges with
groups of the same constant value; the column minima and maxima tell which
columns are constant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Moments(NamedTuple):
    """Moments of one group, or of a stack of groups along leading axes."""
    n: np.ndarray      # rows, shape (...)
    mean: np.ndarray   # (..., d)
    cross: np.ndarray  # (..., d, d) sum of outer(x - mean, x - mean)
    ss: np.ndarray     # (..., d) sum of (x - mean) ** 2 per column
    lo: np.ndarray     # (..., d) column minima, +inf for no rows
    hi: np.ndarray     # (..., d) column maxima, -inf for no rows

    def __getitem__(self, i) -> "Moments":
        """The moments of group i: indexes every field, not the tuple."""
        return Moments(*(f[i] for f in self))


def of(X) -> Moments:
    """The moments of the rows of X, an (n, d) array."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n == 0:
        return Moments(np.array(0), np.zeros(d), np.zeros((d, d)), np.zeros(d),
                       np.full(d, np.inf), np.full(d, -np.inf))
    lo, hi = X.min(axis=0), X.max(axis=0)
    mean = np.where(lo == hi, lo, X.mean(axis=0))
    c = X - mean
    return Moments(np.array(n), mean, c.T @ c, np.sum(c ** 2, axis=0), lo, hi)


def stack(groups) -> Moments:
    """Moments of several groups, stacked along a new leading axis."""
    return Moments(*(np.stack(f) for f in zip(*groups)))


def by_class(X, y) -> Moments:
    """The moments of the rows of each class, 0 and 1, stacked."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    return stack([of(X[y == c]) for c in (0, 1)])


def merge(a: Moments, b: Moments) -> Moments:
    """The moments of the union of groups a and b (elementwise over stacks)."""
    n = a.n + b.n
    share = b.n / np.maximum(n, 1)  # exactly 0 or 1 when a group is empty
    delta = b.mean - a.mean
    w = a.n * share  # n_a n_b / n
    return Moments(
        n, a.mean + delta * share[..., None],
        a.cross + b.cross + w[..., None, None] * (delta[..., :, None] * delta[..., None, :]),
        a.ss + b.ss + w[..., None] * delta ** 2,
        np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi))


def leave_one_out(groups: Moments) -> list[Moments]:
    """For each group i along the first axis, the merge of all others.

    Merges of the groups before i (a prefix scan) and after it (a suffix
    scan) are joined, so no group is ever taken back out.
    """
    empty = of(np.empty((0, groups.mean.shape[-1])))
    empty = Moments(*(np.broadcast_to(f, g.shape[1:]) for f, g in zip(empty, groups)))
    before, after = [empty], [empty]
    for i in range(len(groups.n) - 1):
        before.append(merge(before[-1], groups[i]))
        after.append(merge(groups[-1 - i], after[-1]))
    return [merge(b, a) for b, a in zip(before, reversed(after))]
