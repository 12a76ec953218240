"""Metamorphic relations: how the outputs must move when the inputs move.

They need no ground truth, so they are checked on the easy cohort
(`matrix16`) and on its chance-level control alike. Class swap, and subject
order for LDA and KNN, hold exactly, fold by fold; raw gain and the BLAS
kernels that OpenBLAS picks for the CPU hold within rounding. On RR series,
scaling the intervals by 2 scales the spread and band-power features
exactly; another factor, and reversing the series in time, hold within
rounding.
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
from conftest import assert_bit_equal, modulated_rr, rr_series
from ppgstress import evaluate, hrv, models, pulse, windows

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


def rr_cases() -> dict[str, np.ndarray]:
    """RR intervals (ms) of four shapes: a 0.1 Hz and a 0.25 Hz modulation,
    white noise and a random walk."""
    rng = np.random.default_rng(0)
    return {"lf": modulated_rr(0.1).rr_ms, "hf": modulated_rr(0.25, amp_ms=80.0).rr_ms,
            "noise": rng.uniform(500.0, 1300.0, 400),
            "walk": 800.0 + np.cumsum(rng.normal(0.0, 5.0, 400))}


RR_CASES = rr_cases()


def catalog(rr: pulse.RrSeries, starts, ends) -> dict[str, np.ndarray]:
    """Each catalog column of the windows [starts, ends) of rr, by name."""
    X, reasons = hrv.window_features(rr, starts, ends)
    assert not reasons.any()
    return dict(zip(hrv.FEATURE_NAMES, X.T))


# Reversal reorders the intervals and negates and reorders their differences,
# so each sum is taken in another order. Measured on these cases, SDNN, RMSSD
# and SD2 came out bit-equal and SD1 moved by 1.2e-16 relative on one; no
# order of summation is promised, so all four are held within 1e-12.
@pytest.mark.parametrize("case", RR_CASES)
def test_time_reversal_leaves_spread_features(case):
    rr_ms = RR_CASES[case]
    forward, backward = (catalog(rr_series(x), [-np.inf], [np.inf])
                         for x in (rr_ms, rr_ms[::-1]))
    for name in ("SDNN", "RMSSD", "SD1", "SD2"):
        np.testing.assert_allclose(backward[name], forward[name], rtol=1e-12, atol=0,
                                   err_msg=name)


# Intervals times c, their times kept, scale SDNN and RMSSD by c and the band
# powers by c^2. For c = 2 every operation on the way (sums, means, square
# roots, interpolation, FFT) commutes with the scaling, so the relation holds
# bit for bit. For c = 1.1, measured on these windows, SDNN and RMSSD moved
# by up to 2.2e-15 relative and a band power by up to 7.4e-15 of the
# window's total power (4.9e-12 of its own value, for an LF of 1e-5 ms^2):
# they are held within 1e-12 of the value and of the total power.
@pytest.mark.parametrize("case", RR_CASES)
@pytest.mark.parametrize("c", [2.0, 1.1])
def test_interval_scale_scales_spread_and_power(case, c):
    rr = rr_series(RR_CASES[case])
    scaled = pulse.RrSeries(rr.peak_times_s, c * rr.rr_ms, rr.rr_times_s)
    starts = np.arange(0.0, rr.rr_times_s[-1] - 60.0, 17.0)
    base, got = (catalog(r, starts, starts + 80.0) for r in (rr, scaled))
    for name, power in (("SDNN", 1), ("RMSSD", 1), ("VLF", 2), ("LF", 2), ("HF", 2)):
        want = c ** power * base[name]
        if c == 2.0:
            assert_bit_equal(got[name], want)
        elif power == 1:
            np.testing.assert_allclose(got[name], want, rtol=1e-12, atol=0, err_msg=name)
        else:
            assert np.all(np.abs(got[name] - want) <= 1e-12 * c ** 2 * base["TP"]), name


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
