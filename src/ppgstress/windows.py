"""Sliding-window segmentation, feature matrix assembly, ANOVA-F selection."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hrv, pulse
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

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        with open(path) as f:
            header = f.readline().strip().split(",")
            if header[:3] != ["subject", "label", "start_s"]:
                raise ValidationError(f"bad feature-matrix header in {path}")
            columns = tuple(header[3:])
            subjects, labels, starts, rows = [], [], [], []
            for lineno, line in enumerate(f, start=2):
                parts = line.strip().split(",")
                if len(parts) != 3 + len(columns):
                    raise ValidationError(f"{path}:{lineno}: wrong field count")
                subjects.append(parts[0])
                labels.append(int(parts[1]))
                starts.append(float(parts[2]))
                rows.append([float(v) for v in parts[3:]])
        return cls(tuple(subjects), np.array(labels), np.array(starts),
                   np.array(rows), columns)


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
    ranked: tuple[str, ...]  # descending F, ties broken by catalog order


def anova_f(m: FeatureMatrix) -> SelectionReport:
    """One-way two-group ANOVA F per column; MSW = 0 columns get +inf."""
    groups = [m.X[m.labels == g] for g in (0, 1)]
    if any(len(g) < 2 for g in groups):
        raise DataError("ANOVA needs >= 2 rows in each class")
    grand = np.mean(m.X, axis=0)
    n = m.n_rows
    msb = sum(len(g) * (np.mean(g, axis=0) - grand) ** 2 for g in groups)  # df = 1
    ssw = sum(np.sum((g - np.mean(g, axis=0)) ** 2, axis=0) for g in groups)
    msw = ssw / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(msw > 0, msb / np.where(msw > 0, msw, 1.0), np.inf)
    scores = dict(zip(m.columns, (float(v) for v in f)))
    order = sorted(range(len(m.columns)), key=lambda i: (-f[i], i))
    return SelectionReport(scores, tuple(m.columns[i] for i in order))


def select_top_k(m: FeatureMatrix, report: SelectionReport, k: int) -> FeatureMatrix:
    """Restrict the matrix to the top-k ranked features (k clipped to width)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return m.with_columns(report.ranked[:min(k, len(m.columns))])


@dataclass(frozen=True)
class Scaler:
    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    dropped: tuple[str, ...] = ()

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def standardize(train: FeatureMatrix,
                apply: FeatureMatrix | None = None
                ) -> tuple[Scaler, FeatureMatrix, FeatureMatrix | None]:
    """Z-score using training statistics only; zero-variance columns dropped."""
    mean = np.mean(train.X, axis=0)
    std = np.std(train.X, axis=0, ddof=1) if train.n_rows > 1 else np.zeros_like(mean)
    keep = std > 0
    if not np.any(keep):
        raise DataError("all training columns have zero variance")
    dropped = tuple(c for c, k in zip(train.columns, keep) if not k)
    if dropped:
        log.info("dropping zero-variance columns: %s", ", ".join(dropped))
    kept_cols = tuple(c for c, k in zip(train.columns, keep) if k)
    scaler = Scaler(kept_cols, mean[keep], std[keep], dropped)
    tr = replace(train, X=scaler.transform(train.X[:, keep]), columns=kept_cols)
    ap = None
    if apply is not None:
        ap_cols = apply.with_columns(kept_cols)
        ap = replace(ap_cols, X=scaler.transform(ap_cols.X))
    return scaler, tr, ap
