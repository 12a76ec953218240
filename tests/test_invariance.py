"""Metamorphic relations: how the outputs must move when the inputs move.

They need no ground truth, so they are checked on the easy cohort
(`matrix16`) and on its chance-level control alike. Class swap, and subject
order for LDA and KNN, hold exactly, fold by fold; raw gain holds within
rounding.
"""

from dataclasses import replace

import numpy as np
import pytest

from ppgstress import evaluate, models, windows

MATRICES = ("easy", "shuffled")


def fold_accuracies(matrix, kind):
    """Each fold's LOSO accuracy, by held-out subject."""
    return {fold.subject_id: fold.accuracy
            for fold in evaluate.loso_matrix(matrix, model_kind=kind).folds}


def subjects_reversed(matrix):
    """The same rows, with the subjects' row blocks in reverse order."""
    order = np.concatenate([np.flatnonzero(matrix.rows_for(sid))
                            for sid in matrix.subject_ids[::-1]])
    return windows.FeatureMatrix(tuple(matrix.subjects[i] for i in order),
                                 matrix.labels[order], matrix.starts[order],
                                 matrix.X[order], matrix.columns)


@pytest.fixture(scope="module")
def matrices(matrix16):
    return {"easy": matrix16, "shuffled": evaluate.shuffle_labels(matrix16, seed=0)}


@pytest.fixture(scope="module")
def accuracies(matrices):
    """Every model's fold accuracies on each unmodified matrix: SGD's LOSO
    takes about a second, so each is run once."""
    return {(name, kind): fold_accuracies(matrix, kind)
            for name, matrix in matrices.items() for kind in models.MODEL_KINDS}


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_class_swap_leaves_every_fold(matrices, accuracies, name, kind):
    matrix = matrices[name]
    swapped = replace(matrix, labels=1 - matrix.labels)
    assert fold_accuracies(swapped, kind) == accuracies[name, kind]


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("kind", ["lda", "knn"])
def test_subject_order_leaves_every_fold(matrices, accuracies, name, kind):
    reordered = subjects_reversed(matrices[name])
    assert fold_accuracies(reordered, kind) == accuracies[name, kind]


def test_sgd_depends_on_subject_order(matrices, accuracies):
    """SGD's per-epoch permutations index the stored row order, so reordering
    the subjects acts like a new seed. On the control, at chance, that moves
    some folds; permuting over a canonical order would change SGD's outputs."""
    reordered = fold_accuracies(subjects_reversed(matrices["shuffled"]), "sgd")
    assert reordered.keys() == accuracies["shuffled", "sgd"].keys()
    assert reordered != accuracies["shuffled", "sgd"]


@pytest.fixture(scope="module")
def peaks16(cohort16):
    return {trace.subject_id: windows.prepare_trace(trace).peak_times_s
            for trace in cohort16}


@pytest.mark.parametrize("gain", [0.01, 10.0, 1000.0])
def test_raw_gain_leaves_peak_times(cohort16, peaks16, gain):
    for trace in cohort16:
        scaled = replace(trace, samples=trace.samples * gain)
        np.testing.assert_allclose(windows.prepare_trace(scaled).peak_times_s,
                                   peaks16[trace.subject_id], rtol=0, atol=1e-12,
                                   err_msg=trace.subject_id)
