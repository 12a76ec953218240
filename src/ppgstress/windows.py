"""Sliding-window segmentation, feature matrix assembly, ANOVA-F selection."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hrv, moments, pulse
from .dsp import design_butter_bandpass, filtfilt
from .errors import DataError, ValidationError
from .io import Dataset, PpgTrace

log = logging.getLogger(__name__)

DEFAULT_SWEEP_SIZES = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0)
# The paper's band-pass: 3rd-order Butterworth, 0.5-8 Hz, applied forward-backward.
FILTER_ORDER = 3
BAND_HZ = (0.5, 8.0)


@dataclass(frozen=True)
class WindowSpec:
    size_s: float = 80.0
    step_s: float = 5.0

    def __post_init__(self):
        # nan fails every comparison, so both checks refuse nan as well as inf.
        if not hrv.SPECTRAL_MIN_SPAN_S <= self.size_s < np.inf:
            raise ValidationError(f"window size must be finite and >= "
                                  f"{hrv.SPECTRAL_MIN_SPAN_S:g} s, got {self.size_s}")
        if not 0 < self.step_s <= self.size_s:
            raise ValidationError(f"step must be in (0, size], got {self.step_s}")


@dataclass(frozen=True)
class Window:
    subject_id: str
    label: int  # 0 relaxed, 1 stressed
    start_s: float
    end_s: float


def segment(trace: PpgTrace, spec: WindowSpec) -> list[Window]:
    """Windows placed independently inside each condition span (never straddling)."""
    out = []
    for span in trace.annotations:
        i = 0
        # Each start is computed afresh, so float error does not accumulate.
        while ((start := span.start_s + i * spec.step_s) + spec.size_s
               <= span.end_s + 1e-9):
            out.append(Window(trace.subject_id, span.condition.value,
                              start, start + spec.size_s))
            i += 1
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    subjects: tuple[str, ...]
    labels: np.ndarray
    starts: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.subjects) == len(self.labels) == len(self.starts)
                == self.X.shape[0]):
            raise ValidationError("feature matrix row metadata lengths disagree")
        if self.X.shape[1] != len(self.columns):
            raise ValidationError("column count mismatch")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @cached_property
    def subject_ids(self) -> tuple[str, ...]:
        """The distinct subjects in order of first appearance."""
        return tuple(dict.fromkeys(self.subjects))

    @cached_property
    def codes(self) -> np.ndarray:
        """Each row's subject as an index into `subject_ids`."""
        code = {sid: i for i, sid in enumerate(self.subject_ids)}
        return np.fromiter(map(code.__getitem__, self.subjects), np.intp,
                           len(self.subjects))

    def rows_for(self, subject_id: str) -> np.ndarray:
        ids = self.subject_ids
        return self.codes == (ids.index(subject_id) if subject_id in ids else -1)

    def take(self, mask: np.ndarray) -> "FeatureMatrix":
        names = np.array(self.subject_ids, dtype=object)
        return FeatureMatrix(
            tuple(names[self.codes[mask]]),
            self.labels[mask], self.starts[mask], self.X[mask], self.columns)

    def with_columns(self, names) -> "FeatureMatrix":
        idx = [self.columns.index(n) for n in names]
        return replace(self, X=self.X[:, idx], columns=tuple(names))

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("subject,label,start_s," + ",".join(self.columns) + "\n")
            for i in range(self.n_rows):
                vals = ",".join("%.17g" % v for v in self.X[i])
                f.write(f"{self.subjects[i]},{self.labels[i]},"
                        f"{'%.17g' % self.starts[i]},{vals}\n")


def prepare_trace(trace: PpgTrace) -> pulse.RrSeries:
    """Filter a trace, detect peaks, screen to an RrSeries."""
    cascade = design_butter_bandpass(FILTER_ORDER, *BAND_HZ, trace.fs)
    filtered = filtfilt(cascade, trace.samples)
    peaks = pulse.detect_peaks(filtered, trace.fs)
    try:
        return pulse.to_rr(peaks)
    except DataError as e:
        raise DataError(f"subject {trace.subject_id}: {e}") from None


def build_matrix(ds: Dataset, spec: WindowSpec,
                 prepared: dict[str, pulse.RrSeries] | None = None) -> FeatureMatrix:
    """filtfilt -> peaks -> RR -> HRV features of all windows, one
    `hrv.window_features` call per trace.

    Unusable windows are dropped (logged per reason); a subject left without
    both classes is an error.
    """
    subjects, labels, starts, rows = [], [], [], []
    for trace in ds:
        rr = (prepared or {}).get(trace.subject_id) or prepare_trace(trace)
        wins = segment(trace, spec)
        start = np.array([w.start_s for w in wins])
        end = np.array([w.end_s for w in wins])
        label = np.array([w.label for w in wins], dtype=int)
        lo, hi = pulse.window_bounds(rr.rr_times_s, start, end)
        rej_lo, rej_hi = pulse.window_bounds(rr.rejected_times_s, start, end)
        X, reasons = hrv.window_features(rr, lo, hi, rej_hi - rej_lo, spec.size_s)
        keep = ~reasons.any(axis=1)
        if not keep.all():
            # Each dropped window counts once, under its first reason.
            first = Counter(hrv.DROP_REASONS[j] for j in reasons[~keep].argmax(axis=1))
            log.info("subject %s: dropped %d unusable windows (%s)", trace.subject_id,
                     np.count_nonzero(~keep),
                     ", ".join(f"{r}: {c}" for r, c in sorted(first.items())))
        if len(set(label[keep])) < 2:
            raise DataError(
                f"subject {trace.subject_id} has no usable windows in both classes")
        subjects += [trace.subject_id] * np.count_nonzero(keep)
        labels.append(label[keep])
        starts.append(start[keep])
        rows.append(X[keep])
    return FeatureMatrix(tuple(subjects), np.concatenate(labels),
                         np.concatenate(starts), np.vstack(rows), hrv.FEATURE_NAMES)


@dataclass(frozen=True)
class SelectionReport:
    scores: dict[str, float]
    ranked: tuple[str, ...]  # descending F; bit-equal F in catalog order


def f_scores(classes: moments.Moments) -> np.ndarray:
    """One-way two-group ANOVA F per column, from the two classes' moments.

    MSB = n0 n1 / n (mean1 - mean0)^2 (df = 1) and MSW = (ss0 + ss1) / (n - 2).
    A column constant over all rows gets 0; one constant within each class
    but not over both (MSW = 0) gets +inf. Each class needs 2 rows or more.
    """
    if np.any(classes.n < 2):
        raise DataError("ANOVA needs >= 2 rows in each class")
    (n0, n1), (m0, m1) = classes.n, classes.mean
    n = n0 + n1
    msb = n0 * n1 / n * (m1 - m0) ** 2
    msw = classes.ss.sum(axis=0) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(msw > 0, msb / np.where(msw > 0, msw, 1.0), np.inf)
    f[classes.lo.min(axis=0) == classes.hi.max(axis=0)] = 0.0
    return f


def rank(f: np.ndarray) -> np.ndarray:
    """Column indices by descending F; bit-equal F keep catalog order, nan last.

    LFn + HFn = 100, so their F values are equal in exact arithmetic, but
    rounding may put either first.
    """
    return np.argsort(-f, kind="stable")


def top_k(ranked, k: int):
    """The first k of a ranking (k clipped to its length)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return ranked[:k]


def anova_f(m: FeatureMatrix) -> SelectionReport:
    """ANOVA F per column (`f_scores` of the matrix's two classes)."""
    f = f_scores(moments.by_class(m.X, m.labels))
    return SelectionReport(dict(zip(m.columns, f.tolist())),
                           tuple(m.columns[i] for i in rank(f)))


def select_top_k(m: FeatureMatrix, report: SelectionReport, k: int) -> FeatureMatrix:
    """Restrict the matrix to the top-k ranked features (k clipped to width)."""
    return m.with_columns(top_k(report.ranked, k))


def scaling(total: moments.Moments) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations (ddof = 1) from a group's moments;
    the std of a constant column, or of a single row, is exactly 0."""
    std = np.sqrt(total.ss / (total.n - 1)) if total.n > 1 else np.zeros_like(total.ss)
    return total.mean, std


def _varying(std: np.ndarray, names) -> np.ndarray:
    """Which columns have std > 0; the names of the others are logged as
    dropped, and a DataError is raised when none is left."""
    keep = std > 0
    if not np.any(keep):
        raise DataError("all training columns have zero variance")
    if not np.all(keep):
        log.info("dropping zero-variance columns: %s",
                 ", ".join(n for n, kept in zip(names, keep) if not kept))
    return keep


def select(classes: moments.Moments, k: int, columns: tuple[str, ...]) -> tuple:
    """From a set of training rows' class moments: F of every column, the top-k
    columns by F less zero-variance ones, and their mean and std (ddof = 1)."""
    f = f_scores(classes)
    top = top_k(rank(f), k)
    mean, std = scaling(moments.merge(classes[0], classes[1]))
    cols = top[_varying(std[top], [columns[i] for i in top])]
    return f, cols, mean[cols], std[cols]


def standardize(train: FeatureMatrix, apply: FeatureMatrix | None = None
                ) -> tuple[tuple[str, ...], FeatureMatrix, FeatureMatrix | None]:
    """Z-score using training statistics only. Zero-variance columns are
    dropped from both matrices, and their names are returned first."""
    mean, std = scaling(moments.of(train.X))
    keep = _varying(std, train.columns)
    kept = tuple(c for c, k in zip(train.columns, keep) if k)

    def z(m: FeatureMatrix) -> FeatureMatrix:
        m = m.with_columns(kept)
        return replace(m, X=(m.X - mean[keep]) / std[keep])
    return (tuple(c for c, k in zip(train.columns, keep) if not k), z(train),
            None if apply is None else z(apply))
