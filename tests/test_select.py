"""The fold selection and scaling rules (`windows.select`) through every entry
point: the LOSO folds (`evaluate.fold_stats`, `evaluate.loso_matrix`) and the
whole-matrix helpers that apply the same rule."""

import logging

import numpy as np
import pytest

from ppgstress import evaluate, moments, windows
from ppgstress.errors import DataError, ValidationError


def small(X=None, labels=(0, 0, 0, 1, 1, 1) * 3):
    """Three subjects, A, B and C, of six rows each; columns f0, f1, f2."""
    labels = np.array(labels)
    n = len(labels)
    if X is None:
        X = np.random.default_rng(0).normal(size=(n, 3)) + labels[:, None]
    subjects = tuple(np.repeat(["A", "B", "C"], n // 3))
    return windows.FeatureMatrix(subjects, labels, np.zeros(n), X, ("f0", "f1", "f2"))


def whole(m, k):
    """`windows.select` over every row of m."""
    return windows.select(moments.by_class(m.X, m.labels), k, m.columns)


FOLDS = {"fold_stats": evaluate.fold_stats, "loso_matrix": evaluate.loso_matrix}


@pytest.mark.parametrize("run", [
    *FOLDS.values(), whole,
    lambda m, k: windows.select_top_k(m, windows.anova_f(m), k)],
    ids=[*FOLDS, "select", "select_top_k"])
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_refused(run, k):
    with pytest.raises(ValidationError, match=f"^k must be >= 1, got {k}$"):
        run(small(), k)


# A holds three stressed rows, B one and C none: the fold that holds A out
# trains on a single stressed row.
ONE_STRESSED = (0, 0, 0, 1, 1, 1) + (0, 0, 0, 0, 0, 1) + (0,) * 6


@pytest.mark.parametrize("run", [
    *FOLDS.values(),
    lambda m, k: windows.anova_f(windows.FeatureMatrix(
        m.subjects[6:], m.labels[6:], m.starts[6:], m.X[6:], m.columns))],
    ids=[*FOLDS, "anova_f"])
def test_fold_with_one_row_of_a_class_refused(run):
    with pytest.raises(DataError, match="ANOVA needs >= 2 rows in each class"):
        run(small(labels=ONE_STRESSED), 35)


@pytest.mark.parametrize("run", [
    *FOLDS.values(), whole, lambda m, k: windows.standardize(m)],
    ids=[*FOLDS, "select", "standardize"])
def test_all_columns_constant_refused(run):
    with pytest.raises(DataError, match="all training columns have zero variance"):
        run(small(np.full((18, 3), 0.1)), 35)


@pytest.mark.parametrize("run", [
    *FOLDS.values(), whole, lambda m, k: windows.standardize(m)],
    ids=[*FOLDS, "select", "standardize"])
def test_dropped_columns_named_in_log(run, caplog):
    X = small().X
    X[:, 1] = 0.1
    with caplog.at_level(logging.INFO, logger="ppgstress.windows"):
        run(small(X), 35)
    assert "dropping zero-variance columns: f1" in caplog.messages

