"""Fold-batched SGD (`models.sgd_logistic_fit`) against the per-sample
reference.

The batched kernel keeps each fold's weights as a scale times a vector
(the L2 shrink is folded in once per block of steps) and takes each step's
dot product over pre-scaled rows, while the reference shrinks the weights
at every step, so the sums round differently: weights, bias and losses must
agree within TOL and the predicted labels exactly. On the 16-subject
cohorts the weights differ by at most 2.5e-14 and the losses by 2.8e-17.
"""

import numpy as np
import pytest

import scalar_folds
import scalar_sgd
from conftest import one_fold
from ppgstress import evaluate, models, windows
from ppgstress.errors import DataError

TOL = 1e-12


def first_subjects(matrix, n):
    return matrix.take(matrix.codes < n)


def sgd_loso(monkeypatch, matrix, k):
    """Run SGD LOSO; return the folds it passed to `sgd_logistic_fit`, the
    models it got back and the report."""
    seen = {}
    real = models.sgd_logistic_fit

    def spy(X, y, folds, seed=0):
        seen["folds"] = folds
        seen["batch"] = real(X, y, folds, seed)
        return seen["batch"]

    monkeypatch.setattr(models, "sgd_logistic_fit", spy)
    report = evaluate.loso_matrix(matrix, k, "sgd", seed=0)
    return seen["folds"], seen["batch"].models, report


def assert_close_to_reference(model, X, y, test_X, epochs=50):
    """One fold's model against the reference fitted on (X, y) alone: within
    TOL, with the same labels on test_X, which are returned."""
    ref = scalar_sgd.sgd_logistic_fit(X, y, epochs)
    assert model.weights.shape == ref.weights.shape
    assert np.max(np.abs(model.weights - ref.weights), initial=0.0) <= TOL
    assert abs(model.bias - ref.bias) <= TOL
    assert len(model.loss_per_epoch) == len(ref.loss_per_epoch) == epochs
    if epochs:
        assert np.max(np.abs(np.subtract(model.loss_per_epoch,
                                         ref.loss_per_epoch))) <= TOL
    want = ref.predict_proba(test_X) >= 0.5
    np.testing.assert_array_equal(model.predict_proba(test_X) >= 0.5, want)
    return want


def assert_matches_reference(matrix, k, fitted, report=None, epochs=50):
    """Each fold's model against the reference fitted on that fold alone;
    with a report, also its accuracies against the reference's."""
    splits = list(scalar_folds.fold_splits(matrix, k))
    assert len(splits) == len(fitted)
    for i, (fold, model) in enumerate(zip(splits, fitted)):
        want = assert_close_to_reference(model, fold.train_X, fold.train_y, fold.test_X,
                                         epochs)
        if report is not None:
            assert report.folds[i].accuracy == evaluate.metrics(fold.test_y, want)[0]


def test_unequal_fold_sizes(matrix16, monkeypatch):
    small = first_subjects(matrix16, 2)
    dup = small.take(small.rows_for("S01"))
    doubled = windows.FeatureMatrix(
        small.subjects + dup.subjects, np.r_[small.labels, dup.labels],
        np.r_[small.starts, dup.starts], np.r_[small.X, dup.X], small.columns)
    folds, fitted, report = sgd_loso(monkeypatch, doubled, k=5)
    assert len({len(fold.rows) for fold in folds}) > 1
    batch = models.SgdFolds(fitted)
    assert len(batch.loss_per_epoch) == 50
    assert batch.loss_per_epoch[-1] == tuple(m.loss_per_epoch[-1] for m in fitted)
    assert_matches_reference(doubled, 5, fitted, report)


def test_fold_dropping_zero_variance_column(matrix16, monkeypatch):
    small = first_subjects(matrix16, 2)
    X = small.X.copy()
    # Constant outside S02: the fold that holds S02 out drops the column.
    X[~small.rows_for("S02"), 0] = 1.0
    varied = windows.FeatureMatrix(small.subjects, small.labels, small.starts, X,
                                   small.columns)
    k = len(varied.columns)
    folds, fitted, report = sgd_loso(monkeypatch, varied, k)
    assert sorted(len(fold.cols) for fold in folds) == [k - 1, k]
    assert_matches_reference(varied, k, fitted, report)


def test_zero_epochs(matrix16, monkeypatch):
    small = first_subjects(matrix16, 2)
    folds, _, _ = sgd_loso(monkeypatch, small, k=5)
    monkeypatch.setattr(models, "SGD_EPOCHS", 0)
    fitted = models.sgd_logistic_fit(small.X, small.labels, folds).models
    for model in fitted:
        assert not model.weights.any() and model.bias == 0.0
    assert_matches_reference(small, 5, fitted, epochs=0)


def test_non_finite_values_outside_a_fold_do_not_reach_it(matrix16):
    small = first_subjects(matrix16, 3)
    s1, s2, s3 = (np.flatnonzero(small.rows_for(s)) for s in small.subject_ids)
    X, y = small.X[np.r_[s3, s1, s2]], small.labels[np.r_[s3, s1, s2]]
    held = np.arange(len(s3))  # first, and held out of both folds
    rows_b = len(s3) + np.arange(len(s1))
    rows_a = len(s3) + len(s1) + np.arange(10, len(s2))  # fewer rows than fold b
    X[held[0::3]], X[held[1::3]], X[held[2::3]] = np.nan, np.inf, -np.inf
    # Column 0 is used only by fold b, which does not train on fold a's rows.
    X[rows_a[0::2], 0], X[rows_a[1::2], 0] = np.inf, np.nan
    D = X.shape[1]
    cols_a, cols_b = np.arange(D - 1, 0, -1), np.arange(D)  # fold a is padded
    folds = [models.Fold(X.shape, rows, cols, X[np.ix_(rows, cols)].mean(axis=0),
                         X[np.ix_(rows, cols)].std(axis=0, ddof=1))
             for rows, cols in ((rows_a, cols_a), (rows_b, cols_b))]
    fitted = models.sgd_logistic_fit(X, y, folds).models
    for fold, model in zip(folds, fitted):
        Z = (X[np.ix_(fold.rows, fold.cols)] - fold.mean) / fold.std
        assert np.isfinite(model.weights).all()
        assert_close_to_reference(model, Z, y[fold.rows], Z)


def test_near_constant_column_keeps_loss_precision(monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(150, 3))
    y = (X[:, 1] + rng.normal(0, 0.5, 150) > 0).astype(int)
    # Mean/std ratio 1e12: taking the z-score apart (X @ (w / std) minus
    # mean @ (w / std)) cancels away the losses' precision.
    X[:, 0] = 1000.0 + 1e-9 * X[:, 0]
    mean, std = X.mean(axis=0), X.std(axis=0, ddof=1)
    fold = models.Fold(X.shape, np.arange(150), np.arange(3), mean, std)
    monkeypatch.setattr(models, "SGD_EPOCHS", 5)
    model = models.sgd_logistic_fit(X, y, [fold]).models[0]
    Z = (X - mean) / std
    assert_close_to_reference(model, Z, y, Z, epochs=5)


def test_fold_in_batch_equals_fold_alone(matrix16, monkeypatch):
    small = first_subjects(matrix16, 4)
    s02 = small.rows_for("S02")
    trimmed = small.take(~s02 | (np.cumsum(s02) <= 90))  # S02's first 90 rows
    folds, fitted, _ = sgd_loso(monkeypatch, trimmed, k=8)
    assert len({len(fold.rows) for fold in folds}) > 1
    # Different column sets, and one set in different orders.
    sets = {frozenset(fold.cols) for fold in folds}
    assert 1 < len(sets) < len({tuple(fold.cols) for fold in folds})
    for fold, model in zip(folds, fitted):
        alone = models.sgd_logistic_fit(trimmed.X, trimmed.labels, [fold]).models[0]
        assert np.array_equal(model.weights, alone.weights) and model.bias == alone.bias
        np.testing.assert_allclose(model.loss_per_epoch, alone.loss_per_epoch,
                                   rtol=0, atol=TOL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_reference_error(monkeypatch):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    X[20:] *= 1e200
    y = np.tile([0, 1], 20)
    with pytest.raises(DataError) as ref:
        scalar_sgd.sgd_logistic_fit(X[20:], y[20:], epochs=5)
    scaling = (np.zeros(3), np.ones(3))
    folds = [models.Fold(X.shape, np.arange(20), np.arange(3), *scaling),
             models.Fold(X.shape, np.arange(20, 40), np.arange(3), *scaling)]
    monkeypatch.setattr(models, "SGD_EPOCHS", 5)
    with pytest.raises(DataError) as got:
        models.sgd_logistic_fit(X, y, folds)
    assert str(got.value) == str(ref.value)
    with pytest.raises(DataError) as one:
        models.sgd_logistic_fit(X[20:], y[20:], one_fold(X[20:]))
    assert str(one.value) == str(ref.value)


def test_one_fold_is_the_reference(monkeypatch):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + rng.normal(0, 0.5, 120) > 0).astype(int)
    monkeypatch.setattr(models, "SGD_EPOCHS", 5)
    got = models.sgd_logistic_fit(X, y, one_fold(X), seed=3).models[0]
    ref = scalar_sgd.sgd_logistic_fit(X, y, epochs=5, seed=3)
    assert np.max(np.abs(got.weights - ref.weights)) <= TOL
    assert abs(got.bias - ref.bias) <= TOL
    np.testing.assert_allclose(got.loss_per_epoch, ref.loss_per_epoch, rtol=0, atol=TOL)
