"""Leave-one-subject-out evaluation, window-size sweep and SUDs statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from itertools import combinations

import numpy as np
from scipy.stats import rankdata

from . import models, moments
from .errors import DataError, ValidationError
from .io import Dataset
from .windows import (DEFAULT_SWEEP_SIZES, FeatureMatrix, WindowSpec, build_matrix,
                      prepare_trace, select)

EXACT_U_CAP = 16
# Features kept by the per-fold ANOVA-F selection.
DEFAULT_K = 35


def metrics(y_true, y_pred) -> tuple[float, dict[str, int]]:
    """Accuracy and 2x2 confusion counts (stress = positive class)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValidationError(f"length mismatch: {len(y_true)} vs {len(y_pred)}")
    if len(y_true) == 0:
        raise ValidationError("empty label sequences")
    conf = {
        "tp": int(np.sum((y_true == 1) & (y_pred == 1))),
        "tn": int(np.sum((y_true == 0) & (y_pred == 0))),
        "fp": int(np.sum((y_true == 0) & (y_pred == 1))),
        "fn": int(np.sum((y_true == 1) & (y_pred == 0))),
    }
    return float(np.mean(y_true == y_pred)), conf


@dataclass(frozen=True)
class FoldResult:
    subject_id: str
    accuracy: float
    confusion: dict[str, int]
    n_windows: int


@dataclass(frozen=True)
class CvReport:
    folds: tuple[FoldResult, ...]
    mean_accuracy: float      # mean over subjects (headline figure)
    pooled_accuracy: float    # over all windows pooled
    settings: dict            # echoed under "config"

    def to_json(self) -> str:
        return json.dumps({
            "folds": [asdict(f) for f in self.folds],
            "mean_accuracy": self.mean_accuracy,
            "pooled_accuracy": self.pooled_accuracy,
            "config": self.settings,
        }, indent=2)


@dataclass(frozen=True)
class FoldStats:
    """One LOSO fold's training statistics; no training row is materialised."""
    train: np.ndarray   # training row indices
    test: np.ndarray    # held-out row indices
    f: np.ndarray       # ANOVA F of every column over the training rows
    cols: np.ndarray    # the top-k columns by F, less zero-variance ones
    mean: np.ndarray    # the scaler: mean and std (ddof = 1) of cols
    std: np.ndarray
    classes: moments.Moments  # the training rows' class moments, every column

    def zscored(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Rows of X, restricted to the fold's columns and z-scored."""
        Z = X[rows][:, self.cols].astype(float, copy=False)  # faster than np.ix_
        Z -= self.mean
        Z /= self.std
        return Z

    def lda(self) -> models.LdaModel:
        """LDA on the z-scored training rows, from their class moments."""
        c, std = self.cols, self.std
        scatter = self.classes.cross.sum(axis=0)[np.ix_(c, c)] / np.outer(std, std)
        return models.lda_from_moments(self.classes.n,
                                       (self.classes.mean[:, c] - self.mean) / std, scatter)


def fold_stats(matrix: FeatureMatrix, k: int = DEFAULT_K) -> list[FoldStats]:
    """Every held-out subject's fold, in subject order.

    The moments of each (subject, class) group of rows are taken once; a
    fold's class moments merge those of every other subject
    (`moments.leave_one_out`). Its ANOVA-F ranking, top-k selection and
    scaler, zero-variance columns dropped, come from them by `windows.select`.
    """
    models._check_two_classes(matrix.labels)
    groups = moments.stack([moments.by_class(matrix.X[matrix.codes == code],
                                             matrix.labels[matrix.codes == code])
                            for code in range(len(matrix.subject_ids))])
    return [FoldStats(np.flatnonzero(matrix.codes != code),
                      np.flatnonzero(matrix.codes == code),
                      *select(classes, k, matrix.columns), classes)
            for code, classes in enumerate(moments.leave_one_out(groups))]


def loso_matrix(matrix: FeatureMatrix, k: int = DEFAULT_K, model_kind: str = "lda",
                seed: int = 0, config_echo: dict | None = None) -> CvReport:
    """Strict LOSO over a prebuilt feature matrix.

    Selection and standardization are recomputed inside each fold from the
    training rows only, but without gathering them: the row count, column
    means and centred cross-products of each (subject, class) group are
    taken once, and each fold's class moments are the Chan merges of every
    other subject's (`fold_stats`). The fold's ANOVA-F ranking, scaler and,
    for LDA, class means and pooled covariance follow from them. KNN gets
    its z-scored training rows in one gather; SGD fits all folds at once
    (`models.sgd_logistic_fit` with `folds`). Every fold is predicted
    through its model's `predict_proba`.
    """
    if len(matrix.subject_ids) < 2:
        raise DataError("LOSO needs at least 2 subjects")
    if model_kind not in models.MODEL_KINDS:
        raise ValidationError(f"unknown model kind {model_kind!r}; expected one of "
                              f"{models.MODEL_KINDS}")
    folds = fold_stats(matrix, k)
    X, y = matrix.X, matrix.labels
    if model_kind == "sgd":
        specs = [(fold.train, fold.cols, fold.mean, fold.std) for fold in folds]
        fitted = models.sgd_logistic_fit(X, y, seed=seed, folds=specs).models
    elif model_kind == "lda":
        fitted = (fold.lda() for fold in folds)
    else:
        fitted = (models.knn_fit(fold.zscored(X, fold.train), y[fold.train])
                  for fold in folds)
    results = []
    pooled_correct = 0
    for sid, fold, model in zip(matrix.subject_ids, folds, fitted):
        p = model.predict_proba(fold.zscored(X, fold.test))
        y_pred = (p >= 0.5).astype(int)
        acc, conf = metrics(y[fold.test], y_pred)
        results.append(FoldResult(sid, acc, conf, len(fold.test)))
        pooled_correct += conf["tp"] + conf["tn"]
    cfg = dict(config_echo or {}, k=k, model=model_kind, seed=seed)
    return CvReport(tuple(results),
                    float(np.mean([f.accuracy for f in results])),
                    pooled_correct / matrix.n_rows, cfg)


def window_echo(spec: WindowSpec) -> dict:
    """The window settings a LOSO report's config echoes."""
    return {"window_s": spec.size_s, "step_s": spec.step_s}


def loso(ds: Dataset, spec: WindowSpec = WindowSpec(), k: int = DEFAULT_K,
         model_kind: str = "lda", seed: int = 0, prepared=None) -> CvReport:
    """Build the feature matrix for the dataset and run strict LOSO."""
    matrix = build_matrix(ds, spec, prepared)
    return loso_matrix(matrix, k, model_kind, seed, window_echo(spec))


def shuffle_labels(matrix: FeatureMatrix, seed: int = 0) -> FeatureMatrix:
    """Permute labels within each subject: the chance-level control."""
    rng = np.random.default_rng(seed)
    labels = matrix.labels.copy()
    for code in range(len(matrix.subject_ids)):
        idx = np.flatnonzero(matrix.codes == code)
        labels[idx] = labels[rng.permutation(idx)]
    return FeatureMatrix(matrix.subjects, labels, matrix.starts, matrix.X,
                         matrix.columns)


def sweep_windows(ds: Dataset, sizes=DEFAULT_SWEEP_SIZES,
                  step_s: float = WindowSpec.step_s, k: int = DEFAULT_K,
                  model_kind: str = "lda", seed: int = 0) -> list[dict]:
    """One LOSO run per window size; rows for the sweep CSV."""
    prepared = {t.subject_id: prepare_trace(t) for t in ds}
    rows = []
    for size in sizes:
        spec = WindowSpec(float(size), step_s)
        rep = loso(ds, spec, k, model_kind, seed, prepared)
        rows.append({"window_s": float(size),
                     "mean_accuracy": rep.mean_accuracy,
                     "pooled_accuracy": rep.pooled_accuracy})
    return rows


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UTestResult:
    u: float
    z: float | None
    p_two_tailed: float
    n1: int
    n2: int
    method: str  # "exact" or "normal"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _u_from_ranks(ranks_a: np.ndarray, n1: int) -> float:
    return float(np.sum(ranks_a)) - n1 * (n1 + 1) / 2.0


def mann_whitney_u(a, b, mode: str = "auto") -> UTestResult:
    """Two-tailed Mann-Whitney U with midranks.

    The reported statistic is min(U, n1*n2 - U). Exact mode enumerates every
    label assignment (combined n capped at 16); normal mode uses the
    tie-corrected variance and a 0.5 continuity correction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValidationError("both samples must be non-empty")
    if mode not in ("auto", "exact", "normal"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n1 + n2 <= EXACT_U_CAP else "normal"
    if mode == "exact" and n1 + n2 > EXACT_U_CAP:
        raise ValidationError(
            f"exact mode is capped at combined n = {EXACT_U_CAP}, got {n1 + n2}")

    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)  # midranks under ties
    u1 = _u_from_ranks(ranks[:n1], n1)
    u_min = min(u1, n1 * n2 - u1)

    if mode == "exact":
        count = total = 0
        for pick in combinations(range(n1 + n2), n1):
            ua = _u_from_ranks(ranks[list(pick)], n1)
            if min(ua, n1 * n2 - ua) <= u_min + 1e-9:
                count += 1
            total += 1
        return UTestResult(u_min, None, count / total, n1, n2, "exact")

    n = n1 + n2
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n ** 3 - n) / (n * (n - 1)) - tie_term)
    if var <= 0:
        return UTestResult(u_min, 0.0, 1.0, n1, n2, "normal")
    z = (u_min - n1 * n2 / 2.0 + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2)))
    return UTestResult(u_min, z, p, n1, n2, "normal")


@dataclass(frozen=True)
class SudsReport:
    utest: UTestResult
    relaxing: dict[str, float]
    stressful: dict[str, float]

    def to_json(self) -> str:
        return json.dumps({"utest": asdict(self.utest),
                           "relaxing": self.relaxing,
                           "stressful": self.stressful}, indent=2)


def _summary(values: np.ndarray) -> dict[str, float]:
    return {"n": int(len(values)), "median": float(np.median(values)),
            "mean": float(np.mean(values)), "min": float(np.min(values)),
            "max": float(np.max(values))}


def suds_report(ds: Dataset, mode: str = "auto") -> SudsReport:
    """Pool SUDs ratings by their containing condition span and test them."""
    relax, stress = [], []
    for trace in ds:
        seen = {0: 0, 1: 0}
        for rating in trace.suds:
            span = next((s for s in trace.annotations if s.contains(rating.time_s)),
                        None)
            if span is None:
                raise DataError(
                    f"subject {trace.subject_id}: SUDs rating at t={rating.time_s}s "
                    "lies outside every condition span")
            (relax if span.condition.value == 0 else stress).append(rating.value)
            seen[span.condition.value] += 1
        if seen[0] == 0 or seen[1] == 0:
            raise DataError(
                f"subject {trace.subject_id} lacks SUDs ratings in both conditions")
    a, b = np.array(relax, dtype=float), np.array(stress, dtype=float)
    return SudsReport(mann_whitney_u(a, b, mode), _summary(a), _summary(b))
