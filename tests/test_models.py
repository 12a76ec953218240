import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppgstress import models
from ppgstress.errors import DataError, ValidationError


def gaussian_clouds(seed=0, sep=2.0, sigma=0.5, n=200, d=1):
    rng = np.random.default_rng(seed)
    X = np.r_[rng.normal(-sep, sigma, (n, d)), rng.normal(sep, sigma, (n, d))]
    y = np.r_[np.zeros(n), np.ones(n)].astype(int)
    return X, y


class TestLda:
    def test_separable_training_accuracy(self):
        X, y = gaussian_clouds()
        m = models.lda_fit(X, y)
        assert np.mean((m.predict_proba(X) >= 0.5) == y) >= 0.99

    def test_mirrored_classes_probability_half_at_origin(self):
        rng = np.random.default_rng(1)
        a = rng.normal(2.0, 0.5, (100, 2))
        X = np.r_[a, -a]  # exact mirror, equal priors
        y = np.r_[np.zeros(100), np.ones(100)].astype(int)
        m = models.lda_fit(X, y)
        assert m.decision(np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-9)
        assert m.predict_proba(np.zeros((1, 2)))[0] == pytest.approx(0.5,
                                                                     abs=1e-9)

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


class TestKnn:
    def test_unanimous_neighbors(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.r_[np.zeros(5), np.ones(5)].astype(int)
        m = models.knn_fit(X, y, k=5)
        assert m.predict_proba(np.array([[9.0]]))[0] == 1.0
        assert m.predict_proba(np.array([[0.0]]))[0] == 0.0

    def test_probability_is_neighbor_fraction(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 0, 1, 0, 1])
        m = models.knn_fit(X, y, k=5)
        assert m.predict_proba(np.array([[2.0]]))[0] == pytest.approx(3 / 5)

    def test_distance_ties_broken_by_row_order(self):
        X = np.array([[0.0], [2.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        m = models.knn_fit(X, y, k=3)
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
        np.testing.assert_array_equal(models.KnnModel(X, y, k).predict_proba(T), want)

    def test_k_validation(self):
        X, y = gaussian_clouds(n=3)
        with pytest.raises(ValidationError):
            models.knn_fit(X, y, k=0)


class TestSgd:
    def test_separable_accuracy(self):
        X, y = gaussian_clouds(seed=7, d=2)
        m = models.sgd_logistic_fit(X, y, seed=1)
        assert np.mean((m.predict_proba(X) >= 0.5) == y) >= 0.98

    def test_zero_epochs_gives_prior(self):
        X, y = gaussian_clouds(seed=8)
        m = models.sgd_logistic_fit(X, y, epochs=0, seed=1)
        np.testing.assert_allclose(m.predict_proba(X), 0.5)

    def test_deterministic_per_seed(self):
        X, y = gaussian_clouds(seed=9, d=3)
        a = models.sgd_logistic_fit(X, y, seed=5)
        b = models.sgd_logistic_fit(X, y, seed=5)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_loss_nonincreasing_within_tolerance(self):
        X, y = gaussian_clouds(seed=10, d=2)
        m = models.sgd_logistic_fit(X, y, seed=2)
        losses = np.array(m.loss_per_epoch)
        assert np.all(losses[1:] <= losses[:-1] * 1.05)


@pytest.mark.parametrize("fit", [models.lda_fit, models.knn_fit,
                                 models.sgd_logistic_fit])
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
        with pytest.raises(ValidationError):
            models.stress_level(1.2)

    def test_complementary_probabilities(self):
        p = 0.82
        assert p + (1 - p) == 1.0
        assert models.stress_level(p) + models.stress_level(1 - p) \
            == pytest.approx(1.0)
