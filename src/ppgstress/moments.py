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


def empty(d: int) -> Moments:
    """The moments of no rows of d columns."""
    return Moments(np.array(0), np.zeros(d), np.zeros((d, d)), np.zeros(d),
                   np.full(d, np.inf), np.full(d, -np.inf))


def by_group(X, g, n_groups: int) -> Moments:
    """The moments of each group of rows of X, stacked: row i belongs to group
    g[i], an integer in range(n_groups), and a group without rows gets the
    moments of no rows.

    One stable sort brings each group's rows together, in row order. Sums,
    minima, maxima and sums of squares are segment reductions over the sorted
    rows, which add a group's rows in order, as `X.sum(axis=0)` does; the
    cross-products are one GEMM per group with rows.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=np.intp)
    d = X.shape[1]
    n = np.bincount(g, minlength=n_groups)
    full = n > 0
    start = (np.cumsum(n) - n)[full]
    order = np.argsort(g, kind="stable")
    Xs = X[order]
    lo, hi = np.full((n_groups, d), np.inf), np.full((n_groups, d), -np.inf)
    total = np.zeros((n_groups, d))
    lo[full] = np.minimum.reduceat(Xs, start)
    hi[full] = np.maximum.reduceat(Xs, start)
    total[full] = np.add.reduceat(Xs, start)
    mean = np.where(lo == hi, lo, total / np.maximum(n, 1)[:, None])
    C = Xs - mean[g[order]]
    ss, cross = np.zeros((n_groups, d)), np.zeros((n_groups, d, d))
    ss[full] = np.add.reduceat(C ** 2, start)
    for i, s in zip(np.flatnonzero(full), start):
        c = C[s:s + n[i]]
        cross[i] = c.T @ c
    return Moments(n, mean, cross, ss, lo, hi)


def of(X) -> Moments:
    """The moments of the rows of X, an (n, d) array: its one group."""
    return by_group(X, np.zeros(len(X), dtype=np.intp), 1)[0]


def by_class(X, y) -> Moments:
    """The moments of the rows of each class, 0 and 1, stacked."""
    return by_group(X, y, 2)


def merge(a: Moments, b: Moments) -> Moments:
    """The moments of the union of groups a and b (elementwise over stacks)."""
    n = a.n + b.n
    share = b.n / np.maximum(n, 1)  # exactly 0 or 1 when a group is empty
    delta = b.mean - a.mean
    w = a.n * share  # n_a n_b / n
    cross = delta[..., :, None] * delta[..., None, :]
    cross *= w[..., None, None]
    cross += a.cross
    cross += b.cross
    return Moments(
        n, a.mean + delta * share[..., None], cross,
        a.ss + b.ss + w[..., None] * delta ** 2,
        np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi))


def leave_one_out(groups: Moments) -> Moments:
    """For each group i along the first axis, the merge of all others, stacked.

    The groups are the leaves of a binary tree, padded with empty groups to a
    power of two. Going up, each node merges its two children; going down,
    each node's complement (every leaf outside it) merges its parent's
    complement and its sibling. So no group is ever taken back out, each level
    is one batched merge, and S groups take 2 ceil(log2 S) batched merges of
    about 3S group merges in all.
    """
    n_groups = len(groups.n)
    size = 1 << (n_groups - 1).bit_length()
    none = empty(groups.mean.shape[-1])

    def empties(count):
        return [np.broadcast_to(e, (count, *f.shape[1:])) for e, f in zip(none, groups)]

    levels = [Moments(*map(np.concatenate, zip(groups, empties(size - n_groups))))]
    while len(levels[-1].n) > 1:
        levels.append(merge(levels[-1][0::2], levels[-1][1::2]))
    out = Moments(*empties(1))
    for level in reversed(levels[:-1]):
        pairs = Moments(*(f.reshape(-1, 2, *f.shape[1:])[:, ::-1] for f in level))
        out = merge(out[:, None], pairs)  # each node's parent complement, and its sibling
        out = Moments(*(f.reshape(-1, *f.shape[2:]) for f in out))
    return out[:n_groups]
