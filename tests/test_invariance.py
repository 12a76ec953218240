"""Metamorphic relations: how the outputs must move when the inputs move.

They need no ground truth, so they are checked on the easy cohort
(`matrix16`) and on its chance-level control alike. Class swap, and subject
order for LDA and KNN, hold exactly, fold by fold; raw gain and the BLAS
kernels that OpenBLAS picks for the CPU hold within rounding.
"""

import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ppgstress
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


def blas_skip_reason() -> str | None:
    """Why OPENBLAS_CORETYPE cannot choose numpy's BLAS kernels here, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS core types are x86-64 kernels; this machine is {platform.machine()}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not OpenBLAS built with DYNAMIC_ARCH"
    return None


BLAS_SKIP = blas_skip_reason()


def loso_outputs(matrix) -> dict[str, np.ndarray]:
    """The features, and the probabilities that each model's
    `evaluate.loso_matrix` predicts, fold by fold, on the matrix and on its
    `shuffle_labels(seed=0)` control."""
    out = {"X": matrix.X}
    for name, m in (("easy", matrix), ("shuffled", evaluate.shuffle_labels(matrix, seed=0))):
        for kind, model in zip(models.MODEL_KINDS,
                               (models.LdaModel, models.KnnModel, models.SgdModel)):
            probs, predict = [], model.predict_proba

            def record(self, X):
                probs.append(predict(self, X))
                return probs[-1]
            with mock.patch.object(model, "predict_proba", record):
                evaluate.loso_matrix(m, model_kind=kind)
            out[f"{name}.{kind}"] = np.concatenate(probs)
    return out


# Rebuilds `matrix16` in a fresh process and saves its `loso_outputs`.
REBUILD = """
import sys
import numpy as np
sys.path[:0] = sys.argv[2:]
from ppgstress import io, windows
import test_invariance
cohort = io.synth_cohort(io.SynthCohortSpec(n_subjects=16, seed=7))
matrix = windows.build_matrix(cohort, windows.WindowSpec(80.0, 5.0))
np.savez(sys.argv[1], **test_invariance.loso_outputs(matrix))
"""


@pytest.fixture(scope="module")
def outputs16(matrix16):
    return loso_outputs(matrix16)


# OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU at load time;
# OPENBLAS_CORETYPE forces a core's. On a 2-vCPU x86-64 VM (numpy 2.4,
# OpenBLAS 0.3.31), Prescott moved features by up to 2.0e-12 of their
# column's largest magnitude and the control's LDA and SGD probabilities by
# 1.4e-11 and 8.1e-13, Haswell by 5.5e-13, 1.0e-11 and 5.7e-14; KNN was
# bit-equal, and no label moved. Each rebuild takes about 1.7 s.
@pytest.mark.skipif(BLAS_SKIP is not None, reason=str(BLAS_SKIP))
@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_blas_kernels_leave_outputs(outputs16, core, tmp_path):
    TOL = 1e-9
    path = tmp_path / "outputs.npz"
    done = subprocess.run(
        [sys.executable, "-c", REBUILD, str(path), str(Path(ppgstress.__file__).parents[1]),
         str(Path(__file__).parent)],
        env=dict(os.environ, OPENBLAS_CORETYPE=core), capture_output=True, text=True,
        timeout=600)
    assert done.returncode == 0, done.stderr
    got = dict(np.load(path))
    assert got.keys() == outputs16.keys()
    X, want = got.pop("X"), outputs16["X"]
    assert X.shape == want.shape
    assert np.all(np.abs(X - want) <= TOL * np.abs(want).max(axis=0))
    for key, p in got.items():
        assert p.shape == outputs16[key].shape, key
        assert np.all(np.abs(p - outputs16[key]) <= TOL), key
        np.testing.assert_array_equal(p >= 0.5, outputs16[key] >= 0.5, err_msg=key)
