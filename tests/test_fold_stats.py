"""Moment-based LOSO folds (`evaluate.fold_stats`) against the materialising
reference (`tests/scalar_folds.py`).

A fold's means and sums of squares are merged from per-subject moments, so
they round differently from `np.mean` and `np.std` over its gathered rows.
The F scores, the scaler's std and the LDA decision values (relative to the
fold's largest) must agree within TOL relative, the scaler's mean within
TOL of its std, and the predicted labels exactly. Measured on 16- and
64-subject cohorts (seeds 0, 3, 7 and 11) and their uneven slices: F within
2.7e-12, the mean within 3.4e-14 std, the std within 2.3e-14 and the
decision values within 5.5e-12.
Columns whose F values lie within TOL of each other may rank either way.

The batched class moments are also checked against the sequential
prefix/suffix merge scan of `tests/scalar_moments.py`, on interleaved
subject rows as well.
"""

import numpy as np
import pytest

import scalar_folds
import scalar_moments
from conftest import one_fold
from ppgstress import evaluate, models, windows
from ppgstress.errors import DataError

TOL = 1e-10


def uneven(matrix):
    """The first 4 subjects; S02 keeps only 20 of its stressed rows, S03 none."""
    small = matrix.take(matrix.codes < 4)
    cut = small.rows_for("S02") & (small.labels == 1)
    gone = small.rows_for("S03") & (small.labels == 1)
    return small.take((~cut | (np.cumsum(cut) <= 20)) & ~gone)


def folds_of(m, k):
    """Each held-out subject's held-out rows, its `evaluate.fold_stats` fold,
    the fold's training class moments and their ANOVA F, in subject order."""
    folds, classes = evaluate.fold_stats(m, k)
    return [(np.flatnonzero(m.codes == code), fold, classes[:, code],
             windows.f_scores(classes[:, code])) for code, fold in enumerate(folds)]


def assert_folds_match(m, k):
    """Every fold's statistics and predictions against the reference's."""
    folds, refs = folds_of(m, k), list(scalar_folds.fold_splits(m, k))
    assert len(folds) == len(refs) == len(m.subject_ids)
    for (test, fold, classes, f), ref in zip(folds, refs):
        np.testing.assert_array_equal(test, np.flatnonzero(ref.test_mask))
        train = np.ones(m.n_rows, dtype=bool)  # the complement of the fold's test rows
        train[test] = False
        np.testing.assert_array_equal(train, ~ref.test_mask)
        np.testing.assert_array_equal(fold.rows, np.flatnonzero(train))
        assert fold.shape == m.X.shape
        assert np.all(np.abs(f - ref.f) <= TOL * ref.f)
        order = windows.rank(f)
        moved = order != ref.ranked
        assert np.all(np.abs(ref.f[order] - ref.f[ref.ranked])[moved]
                      <= TOL * ref.f[ref.ranked][moved])
        assert sorted(fold.cols) == sorted(ref.cols)
        at = [list(ref.cols).index(c) for c in fold.cols]
        assert np.all(np.abs(fold.mean - ref.mean[at]) <= TOL * ref.std[at])
        assert np.all(np.abs(fold.std - ref.std[at]) <= TOL * ref.std[at])

        test_X = models.zscore(m.X, test, fold.cols, fold.mean, fold.std)
        lda = evaluate._lda(classes, fold)
        lda_ref = scalar_folds.lda_fit(ref.train_X, ref.train_y)
        d, d_ref = lda.decision(test_X), lda_ref.decision(ref.test_X)
        assert np.max(np.abs(d - d_ref)) <= TOL * np.max(np.abs(d_ref))
        np.testing.assert_array_equal(lda.predict_proba(test_X) >= 0.5,
                                      lda_ref.predict_proba(ref.test_X) >= 0.5)
        train_X = models.zscore(m.X, train, fold.cols, fold.mean, fold.std)
        knn = models.knn_fit(train_X, m.labels[train], one_fold(train_X))[0]
        knn_ref = models.knn_fit(ref.train_X, ref.train_y, one_fold(ref.train_X))[0]
        np.testing.assert_array_equal(knn.predict_proba(test_X),
                                      knn_ref.predict_proba(ref.test_X))


@pytest.mark.parametrize("k", [35, 5])
def test_matrix16_matches_reference(matrix16, k):
    assert_folds_match(matrix16, k)


def test_uneven_classes_match_reference(matrix16):
    m = uneven(matrix16)
    counts = [np.bincount(m.labels[m.codes == c], minlength=2) for c in range(4)]
    assert counts[1][1] == 20 < counts[1][0] and counts[2][1] == 0
    assert_folds_match(m, 35)


def test_fold_constant_column_scores_zero_and_is_dropped(matrix16):
    m = uneven(matrix16)
    X = m.X.copy()
    # 0.1 has no exact binary value: np.mean of it rounds, np.std is not 0.
    X[~m.rows_for("S02"), 3] = 0.1
    m = windows.FeatureMatrix(m.subjects, m.labels, m.starts, X, m.columns)
    folds = folds_of(m, 35)
    s02 = m.subject_ids.index("S02")
    _, held_s02, _, f_s02 = folds[s02]
    assert f_s02[3] == 0.0 and 3 not in held_s02.cols
    assert all(f[3] > 0 and 3 in fold.cols
               for code, (_, fold, _, f) in enumerate(folds) if code != s02)
    assert_folds_match(m, 35)


def test_lfn_hfn_tie_within_tolerance(matrix16):
    # LFn + HFn = 100 in every window, so their F values are equal in exact
    # arithmetic; which ranks first is left to rounding.
    lf, hf = matrix16.columns.index("LFn"), matrix16.columns.index("HFn")
    scores = windows.anova_f(matrix16).scores
    assert abs(scores["LFn"] - scores["HFn"]) <= TOL * scores["LFn"]
    for _, _, _, f in folds_of(matrix16, 35):
        assert abs(f[lf] - f[hf]) <= TOL * f[lf]


def test_report_matches_reference_accuracies(matrix16):
    rep = evaluate.loso_matrix(matrix16, 35, "lda")
    for fold, ref in zip(rep.folds, scalar_folds.fold_splits(matrix16, 35)):
        want = scalar_folds.lda_fit(ref.train_X, ref.train_y).predict_proba(ref.test_X)
        assert fold.accuracy == np.mean(ref.test_y == (want >= 0.5))


def shuffled(matrix, seed=0):
    """The same rows in a random order, so every subject's rows interleave,
    and the permutation: row i of the result is row perm[i] of matrix."""
    perm = np.random.default_rng(seed).permutation(matrix.n_rows)
    return windows.FeatureMatrix(tuple(np.array(matrix.subjects)[perm]),
                                 matrix.labels[perm], matrix.starts[perm],
                                 matrix.X[perm], matrix.columns), perm


def within(got, want, scale):
    """Equal, or within TOL of scale (inf and 0 must match exactly)."""
    return np.all((got == want) | (np.abs(got - want) <= TOL * scale))


def assert_same_fold(fold, fold_f, f, cols, mean, std):
    assert within(fold_f, f, f)
    assert sorted(fold.cols) == sorted(cols)
    at = [list(cols).index(c) for c in fold.cols]
    assert within(fold.mean, mean[at], std[at])
    assert within(fold.std, std[at], std[at])


def assert_matches_sequential_scan(m, k=35):
    folds, refs = folds_of(m, k), scalar_moments.fold_stats(m, k)
    assert len(folds) == len(refs) == len(m.subject_ids)
    for (_, fold, got, f), (classes, *ref) in zip(folds, refs):
        for name in ("n", "lo", "hi"):
            np.testing.assert_array_equal(getattr(got, name), getattr(classes, name))
        assert within(got.mean, classes.mean, np.abs(classes.mean).max())
        assert within(got.ss, classes.ss, classes.ss)
        assert within(got.cross, classes.cross, np.abs(classes.cross).max())
        assert_same_fold(fold, f, *ref)


def two_subjects(m):
    return m.take(m.codes < 2)


@pytest.mark.parametrize("make", [lambda m: m, uneven, two_subjects,
                                  lambda m: shuffled(m)[0], lambda m: shuffled(uneven(m))[0]],
                         ids=["matrix16", "uneven", "two_subjects", "shuffled", "shuffled_uneven"])
@pytest.mark.parametrize("k", [35, 5])
def test_batched_folds_match_sequential_scan(matrix16, make, k):
    assert_matches_sequential_scan(make(matrix16), k)


def test_fold_without_a_class_refused_like_sequential_scan(matrix16):
    # S03 has no stressed rows, so holding S04 out of the pair leaves a fold
    # without any; `uneven` alone covers a subject's empty class group.
    m = uneven(matrix16)
    m = m.take(m.codes >= 2)
    with pytest.raises(DataError, match="^fold S04: ANOVA needs >= 2 rows in each class$"):
        evaluate.fold_stats(m, 35)
    with pytest.raises(DataError, match="ANOVA needs >= 2 rows in each class"):
        scalar_moments.fold_stats(m, 35)


@pytest.mark.parametrize("make", [lambda m: m, lambda m: shuffled(m)[0]], ids=["rows", "shuffled"])
def test_constant_column_sums_of_squares_exactly_zero(matrix16, make):
    X = matrix16.X.copy()
    X[:, 3] = 0.1  # no exact binary value: a mean of it may round
    m = make(windows.FeatureMatrix(matrix16.subjects, matrix16.labels, matrix16.starts,
                                   X, matrix16.columns))
    for _, fold, classes, f in folds_of(m, 35):
        assert np.all(classes.ss[:, 3] == 0) and np.all(classes.mean[:, 3] == 0.1)
        assert np.all(classes.cross[:, 3, :] == 0) and np.all(classes.cross[:, :, 3] == 0)
        assert f[3] == 0.0 and 3 not in fold.cols


def test_shuffled_rows_give_the_same_folds(matrix16):
    m, perm = shuffled(matrix16, seed=3)
    by_subject = dict(zip(matrix16.subject_ids, folds_of(matrix16, 35)))
    for sid, (test, fold, _, f) in zip(m.subject_ids, folds_of(m, 35)):
        ref_test, ref, _, ref_f = by_subject[sid]
        np.testing.assert_array_equal(np.sort(perm[test]), ref_test)
        np.testing.assert_array_equal(np.sort(perm[test]),
                                      np.flatnonzero(matrix16.rows_for(sid)))
        assert_same_fold(fold, f, ref_f, ref.cols, ref.mean, ref.std)
