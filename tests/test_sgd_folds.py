"""Fold-batched SGD (`models.sgd_logistic_fit` with `folds`) against the
per-sample reference.

The batched kernel takes each step's dot product over a contiguous row,
while the reference's rows of a column-selected matrix are strided, so the
sums can round differently: weights, bias and losses must agree within
TOL and the predicted labels exactly.
"""

import numpy as np
import pytest

import scalar_sgd
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

    def spy(*args, folds=None, **kwargs):
        seen["folds"] = folds
        seen["batch"] = real(*args, folds=folds, **kwargs)
        return seen["batch"]

    monkeypatch.setattr(models, "sgd_logistic_fit", spy)
    report = evaluate.loso_matrix(matrix, k, "sgd", seed=0)
    return seen["folds"], seen["batch"].models, report


def assert_matches_reference(matrix, k, fitted, report=None, epochs=50):
    """Each fold's model against the reference fitted on that fold alone;
    with a report, also its accuracies against the reference's."""
    splits = list(evaluate.fold_splits(matrix, k))
    assert len(splits) == len(fitted)
    for i, ((_, _, train, test), model) in enumerate(zip(splits, fitted)):
        ref = scalar_sgd.sgd_logistic_fit(train.X, train.labels, epochs)
        assert model.weights.shape == ref.weights.shape
        assert np.max(np.abs(model.weights - ref.weights), initial=0.0) <= TOL
        assert abs(model.bias - ref.bias) <= TOL
        assert len(model.loss_per_epoch) == len(ref.loss_per_epoch) == epochs
        if epochs:
            assert np.max(np.abs(np.subtract(model.loss_per_epoch,
                                             ref.loss_per_epoch))) <= TOL
        got = model.predict_proba(test.X) >= 0.5
        want = ref.predict_proba(test.X) >= 0.5
        np.testing.assert_array_equal(got, want)
        if report is not None:
            assert report.folds[i].accuracy == evaluate.metrics(test.labels, want)[0]


def test_unequal_fold_sizes(matrix16, monkeypatch):
    small = first_subjects(matrix16, 2)
    dup = small.take(small.rows_for("S01"))
    doubled = windows.FeatureMatrix(
        small.subjects + dup.subjects, np.r_[small.labels, dup.labels],
        np.r_[small.starts, dup.starts], np.r_[small.X, dup.X], small.columns)
    folds, fitted, report = sgd_loso(monkeypatch, doubled, k=5)
    assert len({len(rows) for rows, *_ in folds}) > 1
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
    assert sorted(len(cols) for _, cols, *_ in folds) == [k - 1, k]
    assert_matches_reference(varied, k, fitted, report)


def test_zero_epochs(matrix16, monkeypatch):
    small = first_subjects(matrix16, 2)
    folds, _, _ = sgd_loso(monkeypatch, small, k=5)
    fitted = models.sgd_logistic_fit(small.X, small.labels, epochs=0, folds=folds).models
    for model in fitted:
        assert not model.weights.any() and model.bias == 0.0
    assert_matches_reference(small, 5, fitted, epochs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_reference_error():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    X[20:] *= 1e200
    y = np.tile([0, 1], 20)
    with pytest.raises(DataError) as ref:
        scalar_sgd.sgd_logistic_fit(X[20:], y[20:], epochs=5)
    scaling = (np.zeros(3), np.ones(3))
    folds = [(np.arange(20), np.arange(3), *scaling),
             (np.arange(20, 40), np.arange(3), *scaling)]
    with pytest.raises(DataError) as got:
        models.sgd_logistic_fit(X, y, epochs=5, folds=folds)
    assert str(got.value) == str(ref.value)
    with pytest.raises(DataError) as one:
        models.sgd_logistic_fit(X[20:], y[20:], epochs=5)
    assert str(one.value) == str(ref.value)


def test_one_fold_is_the_reference():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + rng.normal(0, 0.5, 120) > 0).astype(int)
    got = models.sgd_logistic_fit(X, y, epochs=5, seed=3)
    ref = scalar_sgd.sgd_logistic_fit(X, y, epochs=5, seed=3)
    assert np.max(np.abs(got.weights - ref.weights)) <= TOL
    assert abs(got.bias - ref.bias) <= TOL
    np.testing.assert_allclose(got.loss_per_epoch, ref.loss_per_epoch, rtol=0, atol=TOL)
