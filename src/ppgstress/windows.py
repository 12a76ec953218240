"""Sliding-window segmentation, feature matrix assembly, ANOVA-F selection."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hrv, moments, pulse
from .dsp import design_butter_bandpass, filtfilt
from .errors import DataError, ValidationError, check_array, check_k, check_real
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
        # Stored as floats, so that a report's config echoes them as JSON numbers.
        for name, what in (("size_s", "window size"), ("step_s", "step")):
            object.__setattr__(self, name, check_real(getattr(self, name), what))
        # nan fails every comparison, so both checks refuse nan as well as inf.
        if not hrv.SPECTRAL_MIN_SPAN_S <= self.size_s < np.inf:
            raise ValidationError(f"window size must be finite and >= "
                                  f"{hrv.SPECTRAL_MIN_SPAN_S:g} s, got {self.size_s}")
        if not 0 < self.step_s <= self.size_s:
            raise ValidationError(f"step must be in (0, size], got {self.step_s}")


def segment(trace: PpgTrace, spec: WindowSpec) -> np.recarray:
    """Windows placed independently inside each condition span (never
    straddling): a record array of `start_s`, `end_s` and `label` (0 relaxed,
    1 stressed), in span order."""
    if not (isinstance(trace, PpgTrace) and isinstance(spec, WindowSpec)):
        raise ValidationError(f"segment takes a PpgTrace and a WindowSpec, got "
                              f"{type(trace).__name__} and {type(spec).__name__}")
    start, label = [np.empty(0)], [np.empty(0, dtype=int)]
    for span in trace.annotations:
        last = span.end_s + 1e-9
        # Each start is computed afresh, so float error does not accumulate;
        # rounding can let one candidate past the floor pass the test.
        m = int((last - span.start_s - spec.size_s) // spec.step_s) + 2
        s = span.start_s + np.arange(m) * spec.step_s
        s = s[s + spec.size_s <= last]
        start.append(s)
        label.append(np.full(s.size, span.condition.value))
    start = np.concatenate(start)
    wins = np.empty(start.size, [("start_s", float), ("end_s", float), ("label", int)])
    wins["start_s"], wins["end_s"], wins["label"] = (
        start, start + spec.size_s, np.concatenate(label))
    return wins.view(np.recarray)


@dataclass(frozen=True)
class FeatureMatrix:
    subjects: tuple[str, ...]
    labels: np.ndarray
    starts: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        for name, ndim in (("labels", 1), ("starts", 1), ("X", 2)):
            object.__setattr__(self, name, check_array(getattr(self, name),
                                                       f"feature matrix {name}", ndim))
        if not (isinstance(self.subjects, tuple) and isinstance(self.columns, tuple)):
            raise ValidationError("feature matrix subjects and columns must be tuples")
        if not (len(self.subjects) == len(self.labels) == len(self.starts)
                == self.X.shape[0]):
            raise ValidationError("feature matrix row metadata lengths disagree")
        if self.X.shape[1] != len(self.columns):
            raise ValidationError("column count mismatch")
        bad = np.argwhere(~np.isfinite(self.X))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(
                f"subject {self.subjects[i]}: non-finite {self.columns[j]} "
                f"{self.X[i, j]} in the window starting at {self.starts[i]:g} s")

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
    try:
        filtered = filtfilt(cascade, trace.samples)
        return pulse.to_rr(pulse.detect_peaks(filtered, trace.fs))
    except DataError as e:
        raise DataError(f"subject {trace.subject_id}: {e}") from None


def build_matrix(ds: Dataset, spec: WindowSpec,
                 prepared: dict[str, pulse.RrSeries] | None = None) -> FeatureMatrix:
    """filtfilt -> peaks -> RR -> HRV features of all windows, one
    `hrv.window_features` call per trace.

    `prepared` maps a subject to its RrSeries: a sweep passes the same series to
    every size, and so shares each one's Welch segments. Unusable windows are
    dropped (logged per reason); a subject left without both classes is an error.
    """
    # Plain field views: a record array's attribute lookup is slow.
    wins = [segment(trace, spec).view(np.ndarray) for trace in ds]
    # The matrix is allocated before any trace's temporaries. Allocated after
    # them, it lands above their freed memory in the heap and keeps the
    # allocator from returning that memory, which raises the peak RSS.
    X = np.empty((sum(map(len, wins)), len(hrv.FEATURE_NAMES)))
    labels, starts = np.empty(len(X), dtype=int), np.empty(len(X))
    subjects = []
    for trace, w in zip(ds, wins):
        rr = (prepared or {}).get(trace.subject_id) or prepare_trace(trace)
        rows, reasons = hrv.window_features(rr, w["start_s"], w["end_s"])
        keep = ~reasons.any(axis=1)
        if not keep.all():
            # Each dropped window counts once, under its first reason.
            first = Counter(hrv.DROP_REASONS[j] for j in reasons[~keep].argmax(axis=1))
            log.info("subject %s: dropped %d unusable windows (%s)", trace.subject_id,
                     np.count_nonzero(~keep),
                     ", ".join(f"{r}: {c}" for r, c in sorted(first.items())))
        if len(set(w["label"][keep])) < 2:
            raise DataError(
                f"subject {trace.subject_id} has no usable windows in both classes")
        at = slice(len(subjects), len(subjects) + np.count_nonzero(keep))
        X[at], labels[at], starts[at] = rows[keep], w["label"][keep], w["start_s"][keep]
        subjects += [trace.subject_id] * (at.stop - at.start)
    n = len(subjects)
    return FeatureMatrix(tuple(subjects), labels[:n], starts[:n], X[:n], hrv.FEATURE_NAMES)


@dataclass(frozen=True)
class SelectionReport:
    scores: dict[str, float]
    ranked: tuple[str, ...]  # descending F; bit-equal F in catalog order


def f_scores(classes: moments.Moments) -> np.ndarray:
    """One-way two-group ANOVA F per column, from the two classes' moments
    (stacked along the first axis; the axes after it, if any, stack sets of
    rows, each scored on its own).

    MSB = n0 n1 / n (mean1 - mean0)^2 (df = 1) and MSW = (ss0 + ss1) / (n - 2).
    A column constant over all rows gets 0; one constant within each class
    but not over both (MSW = 0) gets +inf. Each class needs 2 rows or more.
    """
    if np.any(classes.n < 2):
        raise DataError("ANOVA needs >= 2 rows in each class")
    (n0, n1), (m0, m1) = classes.n[..., None], classes.mean
    n = n0 + n1
    msb = n0 * n1 / n * (m1 - m0) ** 2
    msw = classes.ss.sum(axis=0) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(msw > 0, msb / np.where(msw > 0, msw, 1.0), np.inf)
    f[classes.lo.min(axis=0) == classes.hi.max(axis=0)] = 0.0
    return f


def rank(f: np.ndarray) -> np.ndarray:
    """Column indices by descending F (along the last axis); bit-equal F keep
    catalog order, nan last.

    LFn + HFn = 1, so their F values are equal in exact arithmetic, but
    rounding may put either first.
    """
    return np.argsort(-f, kind="stable")


def top_k(ranked, k: int):
    """The first k of a ranking, or of each in an array of them along its last
    axis (k clipped to its length)."""
    check_k(k)
    return ranked[..., :k] if isinstance(ranked, np.ndarray) else ranked[:k]


def anova_f(m: FeatureMatrix) -> SelectionReport:
    """ANOVA F per column (`f_scores` of the matrix's two classes)."""
    f = f_scores(moments.by_class(m.X, m.labels))
    return SelectionReport(dict(zip(m.columns, f.tolist())),
                           tuple(m.columns[i] for i in rank(f)))


def select_top_k(m: FeatureMatrix, report: SelectionReport, k: int) -> FeatureMatrix:
    """Restrict the matrix to the top-k ranked features (k clipped to width)."""
    return m.with_columns(top_k(report.ranked, k))


def scaling(total: moments.Moments) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations (ddof = 1) from a group's moments,
    or a stack of them; the std of a constant column, or of a single row, is
    exactly 0, as their sums of squares are."""
    return total.mean, np.sqrt(total.ss / np.maximum(total.n - 1, 1)[..., None])


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


def select(classes: moments.Moments, k: int, columns: tuple[str, ...]) -> list[tuple]:
    """From the class moments of one set of training rows, or of a stack of
    them along the second axis (`f_scores`): for each set, F of every column,
    the top-k columns by F less zero-variance ones, and their mean and std
    (ddof = 1). F, ranking and scaling are computed for all sets at once."""
    f = f_scores(classes)
    top = top_k(rank(f), k)
    mean, std = scaling(moments.merge(classes[0], classes[1]))
    mean, std = (np.take_along_axis(a, top, axis=-1) for a in (mean, std))
    names = np.array(columns)
    picked = []
    for f_s, t, m, s in zip(*(a.reshape(-1, a.shape[-1]) for a in (f, top, mean, std))):
        keep = _varying(s, names[t])
        picked.append((f_s, t[keep], m[keep], s[keep]))
    return picked


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
