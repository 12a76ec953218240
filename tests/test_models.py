import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_knn
from conftest import one_fold
from ppgstress import dsp, evaluate, models
from ppgstress.errors import DataError, ValidationError


def gaussian_clouds(seed=0, sep=2.0, sigma=0.5, n=200, d=1):
    rng = np.random.default_rng(seed)
    X = np.r_[rng.normal(-sep, sigma, (n, d)), rng.normal(sep, sigma, (n, d))]
    y = np.r_[np.zeros(n), np.ones(n)].astype(int)
    return X, y


class TestLda:
    @pytest.mark.acceptance
    def test_separable_training_accuracy(self):
        X, y = gaussian_clouds()
        m = models.lda_fit(X, y)
        assert np.mean((m.predict_proba(X) >= 0.5) == y) >= 0.99

    @pytest.mark.acceptance
    def test_mirrored_classes_probability_half_at_origin(self):
        rng = np.random.default_rng(1)
        a = rng.normal(2.0, 0.5, (100, 2))
        X = np.r_[a, -a]  # exact mirror, equal priors
        y = np.r_[np.zeros(100), np.ones(100)].astype(int)
        m = models.lda_fit(X, y)
        assert m.decision(np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-9)
        assert m.predict_proba(np.zeros((1, 2)))[0] == pytest.approx(0.5,
                                                                     abs=1e-9)

    def test_zero_scatter_refused(self):
        # A zero scatter has a zero trace, so the ridge adds nothing: the
        # singular solve is refused as a DataError, not numpy's LinAlgError.
        with pytest.raises(DataError, match=r"^pooled covariance singular even after ridge$"):
            models.lda_from_moments(np.array([3, 3]), np.array([[0.0, 0.0], [1.0, 1.0]]),
                                    np.zeros((2, 2)))

    def test_duplicate_column_same_predictions(self):
        X, y = gaussian_clouds(seed=2, d=3, sep=1.0, sigma=1.0)
        X2 = np.c_[X, X[:, 0]]
        held = np.random.default_rng(3).normal(0, 1, (50, 3))
        held2 = np.c_[held, held[:, 0]]
        p1 = models.lda_fit(X, y).predict_proba(held)
        p2 = models.lda_fit(X2, y).predict_proba(held2)
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_affine_map_label_invariance(self):
        X, y = gaussian_clouds(seed=4, d=3)
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        b = rng.normal(size=3)
        held = rng.normal(0, 2, (100, 3))
        m1 = models.lda_fit(X, y)
        m2 = models.lda_fit(X @ A + b, y)
        l1 = m1.predict_proba(held) >= 0.5
        l2 = m2.predict_proba(held @ A + b) >= 0.5
        np.testing.assert_array_equal(l1, l2)

    def test_warns_when_underdetermined(self):
        X = np.random.default_rng(6).normal(size=(6, 10))
        y = np.array([0, 0, 0, 1, 1, 1])
        with pytest.warns(UserWarning):
            models.lda_fit(X, y)

    def test_single_class_error(self):
        with pytest.raises(DataError):
            models.lda_fit(np.ones((4, 2)), np.zeros(4, dtype=int))


@st.composite
def adversarial_knn_case(draw):
    """Training rows, test rows and k where a Gram-identity distance misorders.

    Rows come from a small pool, so duplicates and distance ties are common,
    on a large common offset over a small spread, where |t|^2 + |x|^2 - 2 t.x
    cancels; squares that underflow and magnitudes near the overflow cap come
    in too. Some entries are nudged by a few ulps, and a few are nan or +-inf.
    The test rows span several filter chunks.
    """
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    n_test = draw(st.integers(1, 3 * models.KNN_CHUNK_ROWS + 1))
    k = draw(st.integers(1, n))
    offset = draw(st.sampled_from([0.0, 1e3, -1e5, 1e8, 1e153]))
    spread = draw(st.sampled_from([1e-160, 1e-5, 1e-2, 1.0]))
    grid = draw(st.booleans())  # integer steps: many exactly equal distances
    n_pool = draw(st.integers(1, 8))
    ulp_frac = draw(st.sampled_from([0.0, 0.3]))
    jitter = draw(st.sampled_from([0.0, 1e-3]))  # relative: near, not equal, rows
    n_bad = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = rng.integers(-2, 3, (n_pool, d)) if grid else rng.standard_normal((n_pool, d))
    pool = offset + spread * step

    def rows(count, bad):
        R = pool[rng.integers(0, n_pool, count)]
        R = R * (1 + jitter * rng.standard_normal(R.shape))
        nudge = rng.integers(-2, 3, R.shape) * (rng.random(R.shape) < ulp_frac)
        R = R + nudge * np.spacing(R)
        flat = R.reshape(-1)
        flat[rng.integers(0, flat.size, bad)] = rng.choice([np.nan, np.inf, -np.inf], bad)
        return R

    return rows(n, n_bad[0]), rows(n_test, n_bad[1]), k


class TestKnn:
    def test_unanimous_neighbors(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.r_[np.zeros(5), np.ones(5)].astype(int)
        m = models.knn_fit(X, y, one_fold(X), 5)[0]
        assert m.predict_proba(np.array([[9.0]]))[0] == 1.0
        assert m.predict_proba(np.array([[0.0]]))[0] == 0.0

    def test_probability_is_neighbor_fraction(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 0, 1, 0, 1])
        m = models.knn_fit(X, y, one_fold(X), 5)[0]
        assert m.predict_proba(np.array([[2.0]]))[0] == pytest.approx(3 / 5)

    def test_distance_ties_broken_by_row_order(self):
        X = np.array([[0.0], [2.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        m = models.knn_fit(X, y, one_fold(X), 3)[0]
        # from x=0: distances (0, 2, 2, 2); stable order keeps rows 1 then 2
        assert m.predict_proba(np.array([[0.0]]))[0] == pytest.approx(1 / 3)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_broadcast_stable_argsort(self, data):
        n = data.draw(st.integers(1, 30))
        d = data.draw(st.integers(1, 3))
        n_test = data.draw(st.integers(1, 3 * models.KNN_CHUNK_ROWS + 1))
        k = data.draw(st.integers(1, n))
        # Few distinct values: distance ties everywhere, often at the k-th.
        values = st.sampled_from([0.0, 1.0, 2.0])
        X = data.draw(arrays(float, (n, d), elements=values))
        T = data.draw(arrays(float, (n_test, d), elements=values))
        # Distinct powers of two: a mean of k of them names the rows taken.
        y = 2.0 ** np.arange(n)
        d2 = np.sum((T[:, None, :] - X[None, :, :]) ** 2, axis=2)
        want = y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
        model = models.KnnModel(X, y, k, one_fold(X)[0], models.knn_operand(X))
        np.testing.assert_array_equal(model.predict_proba(T), want)

    # Built directly, k=50 raised a bare ValueError at predict, k=0 gave nan
    # probabilities and k=2.5 and True raised bare TypeErrors.
    @pytest.mark.parametrize("k", [50, 0, 2.5, True])
    def test_model_refuses_k_it_cannot_serve(self, k):
        X, y = gaussian_clouds(n=10)
        with pytest.raises(ValidationError,
                           match=rf"^k must be an integer in \[1, n_rows\], got {k!r}$"):
            models.KnnModel(X, y, k, one_fold(X)[0], models.knn_operand(X))

    def test_k_validation(self):
        X, y = gaussian_clouds(n=3)
        with pytest.raises(ValidationError):
            models.knn_fit(X, y, one_fold(X), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, "3", None, True])
    def test_non_integer_k_refused(self, k):
        X, y = gaussian_clouds(n=3)
        with pytest.raises(ValidationError, match="integer"):
            models.knn_fit(X, y, one_fold(X), k)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (1,), (2, 3, 1)])
    def test_wrong_test_columns_refused(self, shape):
        X, y = gaussian_clouds(n=3, d=3)
        m = models.knn_fit(X, y, one_fold(X), 3)[0]
        with pytest.raises(ValidationError, match="3 columns"):
            m.predict_proba(np.zeros(shape))

    @given(adversarial_knn_case(), st.one_of(st.none(), st.integers(1, 41)))
    @settings(max_examples=300, deadline=None)
    def test_neighbours_match_brute_force_reference(self, case, rows_per_gemm):
        X, T, k = case
        # Distinct powers of two: a mean of k of them names the rows taken.
        y = 2.0 ** np.arange(len(X))
        # Small filter GEMMs split the training rows into several blocks and
        # a remainder; None keeps the default, one block at these sizes.
        macs = (dsp.GEMM_MACS if rows_per_gemm is None
                else rows_per_gemm * models.KNN_CHUNK_ROWS * (X.shape[1] + 1))
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(dsp, "GEMM_MACS", macs):
            want = y[scalar_knn.knn_indices(X, T, k)].mean(axis=1)
            got = models.KnnModel(X, y, k, one_fold(X)[0],
                                  models.knn_operand(X)).predict_proba(T)
        np.testing.assert_array_equal(got, want)


@st.composite
def knn_folds_case(draw):
    """A matrix of a few subjects whose rows interleave, each subject's LOSO
    fold as a `models.Fold` with its own k, and each fold's test rows.

    Rows come from a small pool, so duplicate rows and exact distance ties are
    common. A fold's scaler comes from its finite training values, and a
    column constant over its training rows is dropped, as `windows.select`
    does; the kept columns come in a random order. One subject may sit far
    from the others, which moves the fold means away from the operand's
    centre. A few training values may be nan or +-inf, and a few test rows
    have a squared norm near _KNN_SCALE_CAP.
    """
    n_subjects, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(n_subjects + 2, 40))
    offset = draw(st.sampled_from([0.0, 1e3, -1e5, 1e8]))
    spread = draw(st.sampled_from([1e-5, 1e-2, 1.0]))
    grid = draw(st.booleans())
    n_pool = draw(st.integers(1, 8))
    far = draw(st.sampled_from([0.0, 1e3, 1e9]))  # the last subject's shift, in spreads
    constant = draw(st.booleans())  # a column constant outside the last subject
    n_bad, n_huge = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    codes = rng.permutation(np.r_[np.arange(n_subjects), rng.integers(0, n_subjects, n - n_subjects)])
    step = rng.integers(-2, 3, (n_pool, d)) if grid else rng.standard_normal((n_pool, d))
    X = (offset + spread * step)[rng.integers(0, n_pool, n)]
    X[codes == n_subjects - 1] += far * spread
    if constant:
        X[codes != n_subjects - 1, 0] = offset + 0.1
    flat = X.reshape(-1)
    flat[rng.integers(0, flat.size, n_bad)] = rng.choice([np.nan, np.inf, -np.inf], n_bad)
    folds, ks, tests = [], [], []
    for s in range(n_subjects):
        rows = np.flatnonzero(codes != s)
        T = X[rows]
        fin = np.isfinite(T)
        count = fin.sum(axis=0)
        mean = np.where(fin, T, 0).sum(axis=0) / np.maximum(count, 1)
        dev = np.where(fin, T - mean, 0)
        std = np.sqrt((dev ** 2).sum(axis=0) / np.maximum(count - 1, 1))
        keep = np.flatnonzero(std > 0)
        if not len(keep):
            continue
        cols = rng.permutation(keep)
        folds.append(models.Fold(X.shape, rows, cols, mean[cols], std[cols]))
        k = draw(st.one_of(st.just(len(rows)), st.integers(1, len(rows))))
        ks.append(k)
        huge = np.sqrt(models._KNN_SCALE_CAP / len(cols)) * rng.choice(
            [0.5, 0.99, 1.01, 2.0], (n_huge, 1)) * rng.choice([-1.0, 1.0], (n_huge, len(cols)))
        tests.append((np.flatnonzero(codes == s), huge))
    return X, folds, ks, tests


class TestKnnFolds:
    @given(knn_folds_case(), st.one_of(st.none(), st.integers(1, 41)))
    @settings(max_examples=300, deadline=None)
    def test_neighbours_match_brute_force_on_zscored_rows(self, case, rows_per_gemm):
        """Every fold of one shared operand, predicted in fold order, takes the
        same neighbours as the brute-force reference on the fold's own
        z-scored training rows."""
        X, folds, ks, tests = case
        # Distinct powers of two: a mean of k of them names the rows taken.
        y = 2.0 ** np.arange(len(X))
        macs = (dsp.GEMM_MACS if rows_per_gemm is None
                else rows_per_gemm * models.KNN_CHUNK_ROWS * (X.shape[1] + 1))
        operand = models.knn_operand(X)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"), \
                mock.patch.object(dsp, "GEMM_MACS", macs):
            for fold, k, (test, huge) in zip(folds, ks, tests):
                T = np.r_[models.zscore(X, test, fold.cols, fold.mean, fold.std), huge]
                Z = models.zscore(X, fold.rows, fold.cols, fold.mean, fold.std)
                want = y[fold.rows][scalar_knn.knn_indices(Z, T, k)].mean(axis=1)
                got = models.KnnModel(X, y, k, fold, operand).predict_proba(T)
                np.testing.assert_array_equal(got, want)

    def test_slack_edge_rows_go_to_the_exact_path(self):
        """Two clusters of rows a few ulps apart, and test rows between them:
        the filter's values differ by rounding, a small fraction of its slack,
        so its order among them is noise, and the 2 nearest must come from the
        exact path. A filter with 1/64 of the slack decides these rows and
        takes the wrong neighbours; the largest filter error found in random
        cases was about 1/76 of the slack, so no input is known on which a
        quarter of it fails."""
        X = np.array([2.678648229679953, 2.6786482296799585, -3.1614254035122302,
                      -3.1614254035122276, -3.1614254035122302, 2.678648229679961,
                      -3.161425403512241])[:, None]
        T = np.array([-0.2413885869161379, -0.24138858691613874, -0.2413885869161418,
                      -0.24138858691614595, -0.24138858691614973, -0.2413885869161453,
                      -0.24138858691615442, -0.24138858691613832])[:, None]
        y = 2.0 ** np.arange(len(X))
        want = y[scalar_knn.knn_indices(X, T, 2)].mean(axis=1)
        model = models.KnnModel(X, y, 2, one_fold(X)[0], models.knn_operand(X))
        np.testing.assert_array_equal(model.predict_proba(T), want)

    def test_fit_is_the_folds_of_one_operand(self):
        X, y = gaussian_clouds(seed=3, d=2, n=30)
        rows = np.flatnonzero(np.arange(60) % 3 != 0)
        cols = np.array([1, 0])
        mean, std = X[rows][:, cols].mean(axis=0), X[rows][:, cols].std(axis=0, ddof=1)
        fold = models.Fold(X.shape, rows, cols, mean, std)
        fitted = models.knn_fit(X, y, [fold, fold], k=4)
        assert len(fitted) == 2 and fitted[0].operand is fitted[1].operand
        T = models.zscore(X, np.arange(0, 60, 3), cols, mean, std)
        Z = models.zscore(X, rows, cols, mean, std)
        alone = models.knn_fit(Z, y[rows], one_fold(Z), 4)[0]
        for m in fitted:
            np.testing.assert_array_equal(m.predict_proba(T), alone.predict_proba(T))

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_checked_against_each_folds_distinct_rows(self, k):
        X, y = gaussian_clouds(n=4)
        fold = models.Fold(X.shape, np.array([0, 1, 4, 5, 5, 6, 7, 7]), np.arange(1),
                           np.zeros(1), np.ones(1))
        with pytest.raises(ValidationError, match="integer"):
            models.knn_fit(X, y, [fold], k=k)

    def test_fold_without_both_classes_refused(self):
        X, y = gaussian_clouds(n=4)
        fold = models.Fold(X.shape, np.arange(4), np.arange(1), np.zeros(1), np.ones(1))
        with pytest.raises(DataError, match="both classes"):
            models.knn_fit(X, y, [fold])


class TestSgd:
    def test_separable_accuracy(self):
        X, y = gaussian_clouds(seed=7, d=2)
        m = models.sgd_logistic_fit(X, y, one_fold(X), seed=1).models[0]
        assert np.mean((m.predict_proba(X) >= 0.5) == y) >= 0.98

    def test_zero_epochs_gives_prior(self, monkeypatch):
        X, y = gaussian_clouds(seed=8)
        monkeypatch.setattr(models, "SGD_EPOCHS", 0)
        m = models.sgd_logistic_fit(X, y, one_fold(X), seed=1).models[0]
        np.testing.assert_allclose(m.predict_proba(X), 0.5)

    @pytest.mark.acceptance
    def test_deterministic_per_seed(self):
        X, y = gaussian_clouds(seed=9, d=3)
        a = models.sgd_logistic_fit(X, y, one_fold(X), seed=5).models[0]
        b = models.sgd_logistic_fit(X, y, one_fold(X), seed=5).models[0]
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    @pytest.mark.parametrize("seed", [-1, 2.5, True, math.nan])
    def test_bad_seed_refused(self, seed):
        X, y = gaussian_clouds(seed=11)
        with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
            models.sgd_logistic_fit(X, y, one_fold(X), seed=seed)

    @pytest.mark.acceptance
    def test_loss_nonincreasing_within_tolerance(self):
        X, y = gaussian_clouds(seed=10, d=2)
        m = models.sgd_logistic_fit(X, y, one_fold(X), seed=2).models[0]
        losses = np.array(m.loss_per_epoch)
        assert np.all(losses[1:] <= losses[:-1] * 1.05)

    def test_one_zscored_copy_per_fit(self, matrix16, monkeypatch):
        # The fit keeps one z-scored copy of n F (d + 1) floats; everything
        # else it holds (X with two more columns, the (steps, F) tables and
        # the block buffers) took 2.8 MB on matrix16, so a second copy breaks SLACK.
        SLACK = 4 * 2 ** 20
        X, y = matrix16.X, matrix16.labels
        specs, _ = evaluate.fold_stats(matrix16)
        monkeypatch.setattr(models, "SGD_EPOCHS", 1)
        copy = len(X) * len(specs) * (max(len(f.cols) for f in specs) + 1) * 8
        tracemalloc.start()
        try:
            models.sgd_logistic_fit(X, y, specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= copy + SLACK


def bad_folds(X):
    """The fields of a fold of X that each break one of its rules, with the
    message that building it must raise."""
    n, d = X.shape
    rows, cols, mean, std = np.arange(n), np.arange(d), np.zeros(d), np.ones(d)
    return {
        # The SGD fit trained on the next row's column 0; KNN raised IndexError.
        "col-past-X": ((rows, np.array([d + 2]), mean[:1], std[:1]),
                       rf"^fold cols must lie in \[0, {d}\), got values from {d + 2}"),
        "repeated-col": ((rows, np.r_[cols[:-1], 0], mean, std),
                         r"^fold cols must be distinct, got 0 twice$"),
        "short-mean": ((rows, cols, mean[1:], std),
                       rf"^fold mean must hold one value per column \({d}\), got {d - 1}$"),
        "short-std": ((rows, cols, mean, std[1:]),
                      rf"^fold std must hold one value per column \({d}\), got {d - 1}$"),
        "row-past-X": ((np.r_[rows, n], cols, mean, std),
                       rf"^fold rows must lie in \[0, {n}\)"),
        "float-rows": ((rows.astype(float), cols, mean, std),
                       r"^fold rows must be whole numbers, got dtype float64$"),
    }


def bad_fold_fits():
    """Calls that build a fit's arguments, each breaking one rule of the fit
    or of its folds, with the message each must raise. Fold 0 is valid, and a
    bad fold is built as fold 1, so building it raises."""
    X, y = gaussian_clouds(n=4, d=3)
    good = one_fold(X)
    cases = {case: (lambda f=fields: (X, y, good + [models.Fold(X.shape, *f)]), match)
             for case, (fields, match) in bad_folds(X).items()}
    return cases | {
        "no-folds": (lambda: (X, y, []), r"^need at least one fold$"),
        "1-D-X": (lambda: (X[:, 0], y, good), r"^X must be 2-D"),
        "2-D-y": (lambda: (X, y[:, None], good), r"^y must be 1-D"),
        "short-y": (lambda: (X, y[1:], good),
                    rf"^y must hold one label per row of X \({len(X)}\)"),
    }


@pytest.mark.parametrize("case", list(bad_fold_fits()))
@pytest.mark.parametrize("fit", [models.knn_fit, models.sgd_logistic_fit])
def test_bad_fold_specs_refused(fit, case):
    args, match = bad_fold_fits()[case]
    with pytest.raises(ValidationError, match=match):
        fit(*args())


@pytest.mark.parametrize("case", list(bad_folds(np.zeros((8, 3)))))
def test_bad_fold_refused_by_knn_model(case):
    X, y = gaussian_clouds(n=4, d=3)
    fields, match = bad_folds(X)[case]
    with pytest.raises(ValidationError, match=match):
        models.KnnModel(X, y, 1, models.Fold(X.shape, *fields), models.knn_operand(X))


def test_knn_fit_checks_each_fold_once():
    # A fold's indices are checked where it is built, and not again by the fit.
    X, y = gaussian_clouds(n=4, d=3)
    with mock.patch.object(models, "check_indices", wraps=models.check_indices) as check:
        folds = [models.Fold(X.shape, np.arange(8), np.arange(3), np.zeros(3), np.ones(3))
                 for _ in range(3)]
        models.knn_fit(X, y, folds, 2)
    assert [c.args[1] for c in check.call_args_list] == ["fold rows", "fold cols"] * 3


@pytest.mark.parametrize("shape", [(9, 3), (8, 4)])
@pytest.mark.parametrize("fit", [
    models.knn_fit, models.sgd_logistic_fit,
    pytest.param(lambda X, y, folds: models.KnnModel(X, y, 1, folds[0], models.knn_operand(X)),
                 id="KnnModel")])
def test_fold_for_another_shape_refused(fit, shape):
    X, y = gaussian_clouds(n=4, d=3)
    fold = models.Fold(shape, np.arange(8), np.arange(3), np.zeros(3), np.ones(3))
    with pytest.raises(ValidationError, match=rf"^fold built for X of shape "
                                              rf"\({shape[0]}, {shape[1]}\), got shape \(8, 3\)$"):
        fit(X, y, [fold])


def test_linear_models_share_decision_and_fields():
    # perfbench wraps predict_proba on each model class in turn, so a model
    # subclassing another would have its predictions recorded twice.
    assert not issubclass(models.SgdModel, models.LdaModel)
    assert [f.name for f in dataclasses.fields(models.SgdModel)] \
        == ["weights", "bias", "loss_per_epoch"]
    w, X = np.array([1.0, -2.0]), np.array([[1.0, 1.0], [0.0, 3.0]])
    lda, sgd = models.LdaModel(w, 0.5), models.SgdModel(w, 0.5, (0.1,))
    np.testing.assert_array_equal(lda.decision(X), [-0.5, -5.5])
    np.testing.assert_array_equal(lda.predict_proba(X), sgd.predict_proba(X))


def test_sigmoid_matches_expit():
    from scipy.special import expit
    x = np.r_[np.linspace(-800.0, 800.0, 64001), 0.0, -0.0, 5e-324, -5e-324,
              np.inf, -np.inf, 1e308, -1e308, np.nan]
    got, want = models._sigmoid(x), expit(x)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    # A few ulp where expit is a normal number; below that, expit flushes to
    # 0 from about x = -709 while the true value is subnormal.
    normal = want >= np.finfo(float).tiny
    np.testing.assert_array_max_ulp(got[normal], want[normal], maxulp=4)
    tiny = ~normal & ~np.isnan(want)
    assert np.all(np.abs(got[tiny] - want[tiny]) <= np.finfo(float).tiny)


def test_sigmoid_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert models._sigmoid(0.0) == 0.5
        z = np.array([np.inf, 1e308, -np.inf, -1e308])
        np.testing.assert_array_equal(models._sigmoid(z), [1.0, 1.0, 0.0, 0.0])
        assert np.isnan(models._sigmoid(np.nan))


@pytest.mark.parametrize("fit", [
    models.lda_fit,
    pytest.param(lambda X, y: models.knn_fit(X, y, one_fold(X)), id="knn_fit"),
    pytest.param(lambda X, y: models.sgd_logistic_fit(X, y, one_fold(X)),
                 id="sgd_logistic_fit")])
def test_non_binary_labels_refused(fit):
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError, match="both classes"):
        fit(X, np.array([0.5, 0.5, 1.0, 1.0]))


class TestStressLevel:
    @pytest.mark.parametrize("p,lvl", [(0.82, 0.8), (0.0, 0.0), (0.85, 0.9),
                                       (1.0, 1.0), (0.05, 0.1)])
    def test_rounding(self, p, lvl):
        assert models.stress_level(p) == lvl

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^probability out of \[0,1\]: 1.2$"):
            models.stress_level(1.2)

    # True gave 1.0; "0.5" and None raised a bare TypeError.
    @pytest.mark.parametrize("p,shown", [(True, "True"), ("0.5", "'0.5'"),
                                         (None, "None")])
    def test_not_a_real_number_refused(self, p, shown):
        with pytest.raises(ValidationError,
                           match=f"^probability must be a real number, got {shown}$"):
            models.stress_level(p)

    def test_complementary_probabilities(self):
        p = 0.82
        assert p + (1 - p) == 1.0
        assert models.stress_level(p) + models.stress_level(1 - p) \
            == pytest.approx(1.0)
