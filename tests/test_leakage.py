"""Leakage gates: nothing of a held-out subject reaches its own fold.

Two relations, which hold bit for bit:
- pipeline: perturbing one subject's raw trace changes only that subject's
  rows of the feature matrix;
- fold: perturbing the held-out subject's rows or labels leaves its fold's
  ANOVA-F scores, columns and scaler, and its LDA, KNN and SGD probabilities
  on the subject's original rows, bit-equal.

They are checked on the easy cohort (`matrix16`) and on its chance-level
control. KNN's filter operand is centred on the mean of every row, held-out
ones included, so the gate compares the model's outputs, not its internals.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_bit_equal
from ppgstress import evaluate, io, models, windows

SUBJECTS = (0, 7, 15)
PERTURBATIONS = ("noise", "scale", "labels")


@pytest.fixture(scope="module")
def matrices(matrix16):
    return {"easy": matrix16, "shuffled": evaluate.shuffle_labels(matrix16, seed=0)}


def test_raw_trace_changes_only_its_subject_rows(cohort16, matrix16):
    rng = np.random.default_rng(0)
    traces = tuple(t if t.subject_id != "S04" else
                   replace(t, samples=1.7 * t.samples + rng.normal(0.0, 0.1, t.samples.size))
                   for t in cohort16)
    got = windows.build_matrix(io.Dataset(traces), windows.WindowSpec(80.0, 5.0))
    s04 = matrix16.rows_for("S04")
    assert np.count_nonzero(s04) == 138 and np.count_nonzero(~s04) == 2070
    # Every row of S04 changes, and every other row is bit-equal.
    assert_bit_equal(got.rows_for("S04"), s04)
    assert np.all(np.any(got.X[s04] != matrix16.X[s04], axis=1))
    assert got.subjects == matrix16.subjects
    for field in ("labels", "starts", "X"):
        assert_bit_equal(getattr(got, field)[~s04], getattr(matrix16, field)[~s04])


def perturbed(matrix, code, how):
    """The matrix with subject `code`'s rows replaced by Gaussian noise,
    scaled by 1e3, or with their labels swapped."""
    rows = matrix.codes == code
    if how == "labels":
        return replace(matrix, labels=np.where(rows, 1 - matrix.labels, matrix.labels))
    X = matrix.X.copy()
    if how == "noise":
        X[rows] = np.random.default_rng(code).normal(size=X[rows].shape)
    else:
        X[rows] *= 1e3
    return replace(matrix, X=X)


def held_out_fold(matrix, code, X_test):
    """Fold `code`'s statistics, and each model's probabilities on X_test's
    rows of that subject; KNN and SGD fit that fold alone."""
    fold = evaluate.fold_stats(matrix)[code]
    train = models.Fold(matrix.X.shape, np.flatnonzero(matrix.codes != code),
                        fold.cols, fold.mean, fold.std)
    Z = fold.zscored(X_test)
    X, y = matrix.X, matrix.labels
    return {"f": fold.f, "cols": fold.cols, "mean": fold.mean, "std": fold.std,
            "lda": fold.lda().predict_proba(Z),
            "knn": models.knn_fit(X, y, [train])[0].predict_proba(Z),
            "sgd": models.sgd_logistic_fit(X, y, [train]).models[0].predict_proba(Z)}


@pytest.fixture(scope="module")
def unperturbed(matrices):
    """Each gated fold of each matrix, as fitted on the matrix itself: SGD's
    one-fold fit takes about 0.4 s, so each is run once."""
    return {(name, code): held_out_fold(matrix, code, matrix.X)
            for name, matrix in matrices.items() for code in SUBJECTS}


@pytest.mark.parametrize("how", PERTURBATIONS)
@pytest.mark.parametrize("code", SUBJECTS)
@pytest.mark.parametrize("name", ["easy", "shuffled"])
def test_held_out_rows_leave_their_fold(matrices, unperturbed, name, code, how):
    matrix = matrices[name]
    changed = perturbed(matrix, code, how)
    rows = matrix.codes == code
    assert np.all(np.any(changed.X[rows] != matrix.X[rows], axis=1)) or np.all(
        changed.labels[rows] != matrix.labels[rows])
    got = held_out_fold(changed, code, matrix.X)
    want = unperturbed[name, code]
    for key in want:
        assert_bit_equal(got[key], want[key])
