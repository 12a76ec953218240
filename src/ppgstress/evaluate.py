"""Leave-one-subject-out evaluation, window-size sweep and SUDs statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from itertools import combinations

import numpy as np

from . import models, moments
from .errors import DataError, ValidationError, check_array, check_k, check_seed
from .io import Dataset
from .windows import (DEFAULT_SWEEP_SIZES, FeatureMatrix, WindowSpec, build_matrix,
                      prepare_trace, select)

# Largest combined sample size whose U-test p-value is enumerated exactly.
EXACT_U_CAP = 16
# Features kept by the per-fold ANOVA-F selection.
DEFAULT_K = 35  # exceeds the 27 columns: all are kept, and ANOVA-F only orders them


def _fold_metrics(y_true, y_pred, sizes) -> list[tuple[float, dict[str, int]]]:
    """Accuracy and 2x2 confusion counts (stress = positive class) of each run
    of `sizes[i]` consecutive rows of the 0/1 labels: every run's counts from
    one bincount."""
    fold = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(4 * fold + 2 * y_true.astype(np.intp) + y_pred.astype(np.intp),
                         minlength=4 * len(sizes))
    return [((tn + tp) / n, {"tp": tp, "tn": tn, "fp": fp, "fn": fn})
            for n, (tn, fp, fn, tp) in zip(sizes, counts.reshape(-1, 4).tolist())]


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
    config: dict              # window, k, model and seed of the run

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def fold_stats(matrix: FeatureMatrix, k: int = DEFAULT_K
               ) -> tuple[list[models.Fold], moments.Moments]:
    """Every held-out subject's training `models.Fold` of X, in subject order,
    and the class moments of each fold's training rows, stacked (class, fold).

    The moments of each (subject, class) group of rows come from one sort
    (`moments.by_group`); a fold's class moments merge those of every other
    subject, all folds in one batched scan (`moments.leave_one_out`). Their
    ANOVA-F rankings, top-k selections and scalers, zero-variance columns
    dropped, are computed for all folds at once by `windows.select`. A fold
    whose training rows hold fewer than 2 rows of a class is refused with a
    DataError that names its held-out subject.
    """
    models._check_two_classes(matrix.labels)
    n_subjects, codes = len(matrix.subject_ids), matrix.codes
    groups = moments.by_group(matrix.X, 2 * codes + matrix.labels.astype(np.intp),
                              2 * n_subjects)
    groups = moments.Moments(*(f.reshape(n_subjects, 2, *f.shape[1:]) for f in groups))
    classes = moments.Moments(*(f.swapaxes(0, 1) for f in moments.leave_one_out(groups)))
    short = np.flatnonzero(np.any(classes.n < 2, axis=0))
    if len(short):
        raise DataError(f"fold {matrix.subject_ids[short[0]]}: "
                        "ANOVA needs >= 2 rows in each class")
    folds = [models.Fold(matrix.X.shape, np.flatnonzero(codes != code), cols, mean, std)
             for code, (_, cols, mean, std) in enumerate(select(classes, k, matrix.columns))]
    return folds, classes


def _lda(classes: moments.Moments, fold: models.Fold) -> models.LdaModel:
    """LDA on a fold's z-scored training rows, from their class moments."""
    c, std = fold.cols, fold.std
    scatter = classes.cross.sum(axis=0)[np.ix_(c, c)] / np.outer(std, std)
    return models.lda_from_moments(classes.n, (classes.mean[:, c] - fold.mean) / std, scatter)


def loso_matrix(matrix: FeatureMatrix, k: int = DEFAULT_K, model_kind: str = "lda",
                seed: int = 0, config_echo: dict | None = None) -> CvReport:
    """Strict LOSO over a prebuilt feature matrix.

    Selection and standardization are recomputed inside each fold from the
    training rows only, but without gathering them: the row count, column
    means and centred cross-products of each (subject, class) group are
    taken once, and each fold's class moments are the Chan merges of every
    other subject's (`fold_stats`). The fold's ANOVA-F ranking, scaler and,
    for LDA, class means and pooled covariance follow from them. All three
    models fit the `models.Fold`s that `fold_stats` returns; KNN and SGD fit
    all folds at once (`models.knn_fit`, `models.sgd_logistic_fit`), and KNN
    filters every fold against one centred copy of the matrix and z-scores
    only the training rows its filter leaves undecided. Every fold is
    predicted through its model's `predict_proba`, on the held-out subject's
    rows z-scored by the fold's scaler (`models.zscore`).
    """
    if len(matrix.subject_ids) < 2:
        raise DataError("LOSO needs at least 2 subjects")
    check_run(k, [model_kind], seed)  # the seed is echoed, whatever the model
    folds, classes = fold_stats(matrix, k)
    X, y = matrix.X, matrix.labels
    if model_kind == "lda":
        fitted = (_lda(classes[:, code], fold) for code, fold in enumerate(folds))
    else:
        fitted = (models.sgd_logistic_fit(X, y, folds, seed).models if model_kind == "sgd"
                  else models.knn_fit(X, y, folds))
    tests = [np.flatnonzero(matrix.codes == code) for code in range(len(folds))]
    probs = [model.predict_proba(models.zscore(X, test, fold.cols, fold.mean, fold.std))
             for test, fold, model in zip(tests, folds, fitted)]
    sizes = list(map(len, tests))
    scored = _fold_metrics(y[np.concatenate(tests)], np.concatenate(probs) >= 0.5, sizes)
    results = [FoldResult(sid, acc, conf, n)
               for sid, (acc, conf), n in zip(matrix.subject_ids, scored, sizes)]
    pooled_correct = sum(conf["tp"] + conf["tn"] for _, conf in scored)
    cfg = dict(config_echo or {}, k=int(k), model=model_kind, seed=int(seed))
    return CvReport(tuple(results),
                    float(np.mean([f.accuracy for f in results])),
                    pooled_correct / matrix.n_rows, cfg)


def check_run(k, model_kinds, seed) -> None:
    """Refuse a bad seed, then a bad k, then the first model kind that is
    unknown or given twice."""
    check_seed(seed)
    check_k(k)
    for i, kind in enumerate(model_kinds):
        if kind not in models.MODEL_KINDS:
            raise ValidationError(f"unknown model kind {kind!r}; expected one of "
                                  f"{models.MODEL_KINDS}")
        if kind in model_kinds[:i]:
            raise ValidationError(f"model kind {kind!r} given twice")


def window_echo(spec: WindowSpec) -> dict:
    """The window settings a LOSO report's config echoes."""
    return {"window_s": spec.size_s, "step_s": spec.step_s}


def loso_reports(ds: Dataset, specs: list[WindowSpec], model_kinds: list[str], k: int,
                 seed: int) -> list[CvReport]:
    """Strict LOSO of each model kind at each window spec, reports spec by spec.
    Each trace is prepared once, so its RrSeries' Welch segment table serves
    every spec; each spec's matrix is freed before the next is built."""
    check_run(k, model_kinds, seed)
    prepared = {t.subject_id: prepare_trace(t) for t in ds}
    reports = []
    for spec in specs:
        matrix = build_matrix(ds, spec, prepared)
        reports += [loso_matrix(matrix, k, kind, seed, window_echo(spec))
                    for kind in model_kinds]
        del matrix
    return reports


def loso(ds: Dataset, spec: WindowSpec = WindowSpec(), k: int = DEFAULT_K,
         model_kind: str = "lda", seed: int = 0) -> CvReport:
    """Build the feature matrix for the dataset and run strict LOSO."""
    return loso_reports(ds, [spec], [model_kind], k, seed)[0]


def shuffle_labels(matrix: FeatureMatrix, seed: int = 0) -> FeatureMatrix:
    """Permute labels within each subject: the chance-level control, and the
    narrow window-level null, since the windows it permutes one by one overlap."""
    check_seed(seed)
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
    """One LOSO run per window size (`loso_reports`); rows for the sweep CSV."""
    specs = [WindowSpec(float(size), step_s) for size in sizes]
    if not specs:
        raise ValidationError(f"sizes names no window size: {sizes!r}")
    return [{"window_s": rep.config["window_s"], "mean_accuracy": rep.mean_accuracy,
             "pooled_accuracy": rep.pooled_accuracy}
            for rep in loso_reports(ds, specs, [model_kind], k, seed)]


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


def midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of x, tied values sharing their mean rank, and the size
    of each group of tied values in ascending order; from one sort."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[first[1:], len(x)]
    counts = ends - first
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (first + ends + 1), counts)
    return ranks, counts


def _u_from_ranks(ranks_a: np.ndarray, n1: int) -> float:
    return float(np.sum(ranks_a)) - n1 * (n1 + 1) / 2.0


def mann_whitney_u(a, b) -> UTestResult:
    """Two-tailed Mann-Whitney U with midranks.

    The reported statistic is min(U, n1*n2 - U). Up to a combined n of
    EXACT_U_CAP the p-value enumerates every label assignment; above it, it
    uses the tie-corrected variance and a 0.5 continuity correction.
    """
    a, b = (check_array(x, "U test samples").astype(float, copy=False) for x in (a, b))
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValidationError("both samples must be non-empty")

    pooled = np.concatenate([a, b])
    if not np.all(np.isfinite(pooled)):
        raise ValidationError("samples must be finite")
    ranks, tie_counts = midranks(pooled)
    u1 = _u_from_ranks(ranks[:n1], n1)
    u_min = min(u1, n1 * n2 - u1)

    if n1 + n2 <= EXACT_U_CAP:
        count = total = 0
        for pick in combinations(range(n1 + n2), n1):
            ua = _u_from_ranks(ranks[list(pick)], n1)
            if min(ua, n1 * n2 - ua) <= u_min + 1e-9:
                count += 1
            total += 1
        return UTestResult(u_min, None, count / total, n1, n2, "exact")

    n = n1 + n2
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
        return json.dumps(asdict(self), indent=2)


def _summary(values: np.ndarray) -> dict[str, float]:
    return {"n": int(len(values)), "median": float(np.median(values)),
            "mean": float(np.mean(values)), "min": float(np.min(values)),
            "max": float(np.max(values))}


def suds_report(ds: Dataset) -> SudsReport:
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
    return SudsReport(mann_whitney_u(a, b), _summary(a), _summary(b))
