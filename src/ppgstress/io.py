"""Dataset loading, saving and synthetic PPG cohort generation.

The synthetic cohort is the verification oracle for the rest of the
pipeline: RR interval plans are planted explicitly, so peak detection,
HRV features and the classifiers can all be checked against known
ground truth.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .pulse import RR_MAX_MS, RR_MIN_MS

# Floats in on-disk CSV/JSON. 12 significant digits do not round-trip every
# float64: cohort16's reloaded samples differ by up to 5.0e-12 (ROADMAP item 7).
FLOAT_FMT = "%.12g"


class Condition(Enum):
    RELAXING = 0
    STRESSFUL = 1

    @classmethod
    def parse(cls, text: str) -> "Condition":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValidationError(
                f"unknown condition {text!r}; expected 'relaxing' or 'stressful'"
            ) from None


@dataclass(frozen=True)
class ConditionSpan:
    start_s: float
    end_s: float
    condition: Condition

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise ValidationError(
                f"condition span must have end > start, got [{self.start_s}, {self.end_s}]"
            )

    def contains(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class SudsRating:
    time_s: float
    value: int

    def __post_init__(self):
        if not 0 <= self.value <= 100:
            raise ValidationError(f"SUDs out of [0,100]: {self.value}")


@dataclass(frozen=True)
class PpgTrace:
    subject_id: str
    fs: float
    samples: np.ndarray
    annotations: tuple[ConditionSpan, ...] = ()
    suds: tuple[SudsRating, ...] = ()

    def __post_init__(self):
        # The id names the subject's files and is a field of the feature CSV.
        if not (isinstance(self.subject_id, str) and self.subject_id
                and not set(self.subject_id) & set(",\r\n/\\")):
            raise ValidationError(f"subject id {self.subject_id!r} must be non-empty "
                                  "and hold no ',', CR, LF, '/' or '\\'")
        # nan fails both comparisons, so it is refused with inf.
        if not (isinstance(self.fs, numbers.Real) and 25.0 <= self.fs < math.inf):
            raise ValidationError(f"subject {self.subject_id}: fs must be a finite "
                                  f"number >= 25 Hz, got {self.fs!r}")
        object.__setattr__(self, "fs", float(self.fs))
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError(f"subject {self.subject_id}: non-finite PPG samples")
        dur = self.duration_s
        prev_end = 0.0
        for span in self.annotations:
            if span.start_s < prev_end - 1e-9:
                raise ValidationError(
                    f"subject {self.subject_id}: overlapping or unordered spans at {span.start_s}s"
                )
            if span.end_s > dur + 1e-9:
                raise ValidationError(
                    f"subject {self.subject_id}: span ends at {span.end_s}s, trace is {dur}s"
                )
            prev_end = span.end_s

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs


@dataclass(frozen=True)
class Dataset:
    traces: tuple[PpgTrace, ...]

    def __post_init__(self):
        if not self.traces:
            raise ValidationError("dataset has no traces")
        ids = [t.subject_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate subject ids in dataset: {ids}")

    def __iter__(self):
        return iter(self.traces)

    def __len__(self):
        return len(self.traces)


@dataclass(frozen=True)
class SynthCohortSpec:
    n_subjects: int = 16
    fs: float = 100.0
    span_s: float = 420.0
    relaxed_hr: float = 65.0
    stressed_hr: float = 85.0
    # RR modulation amplitudes in ms: (LF at 0.1 Hz, HF at 0.25 Hz)
    relaxed_hrv: tuple[float, float] = (40.0, 50.0)
    stressed_hrv: tuple[float, float] = (15.0, 10.0)
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_subjects, numbers.Integral) and self.n_subjects >= 1):
            raise ValidationError(f"n_subjects must be a whole number >= 1, "
                                  f"got {self.n_subjects!r}")
        for name in ("fs", "span_s", "relaxed_hr", "stressed_hr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        # plan_rr would clip a nan interval to RR_MIN_MS without complaint.
        for name in ("relaxed_hrv", "stressed_hrv"):
            if not (len(amps := getattr(self, name)) == 2
                    and all(map(math.isfinite, amps))):
                raise ValidationError(f"{name} must be two finite amplitudes in ms")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError("noise_sigma must be >= 0 and finite")


PULSE_WIDTH_S = 0.3
DICROTIC_DELAY_S = 0.25
DICROTIC_AMPLITUDE = 0.3


def _render_beats(beat_times: np.ndarray, fs: float, n: int, dicrotic: bool) -> np.ndarray:
    """Sum one squared-cosine lobe per beat (peak exactly at the beat time)."""
    t = np.arange(n) / fs
    x = np.zeros(n)
    half = PULSE_WIDTH_S / 2
    lobes = [(0.0, 1.0)]
    if dicrotic:
        lobes.append((DICROTIC_DELAY_S, DICROTIC_AMPLITUDE))
    for tb in beat_times:
        for delay, amp in lobes:
            c = tb + delay
            i0 = max(0, int(math.ceil((c - half) * fs)))
            i1 = min(n, int(math.floor((c + half) * fs)) + 1)
            if i0 >= i1:
                continue
            u = t[i0:i1] - c
            x[i0:i1] += amp * np.cos(np.pi * u / PULSE_WIDTH_S) ** 2
    return x


def synth_ppg(
    rr_plan_ms,
    fs: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
    subject_id: str = "synth",
    dicrotic: bool = False,
    annotations: tuple[ConditionSpan, ...] = (),
    suds: tuple[SudsRating, ...] = (),
) -> PpgTrace:
    """Render a PPG trace whose systolic peaks sit at cumsum(rr_plan).

    Deterministic for a fixed seed; noise is additive Gaussian.
    """
    rr = np.asarray(rr_plan_ms, dtype=float)
    if rr.size == 0:
        raise DataError("rr_plan is empty")
    if np.any(rr < RR_MIN_MS) or np.any(rr > RR_MAX_MS):
        raise ValidationError(
            f"rr_plan values must lie in [{RR_MIN_MS:g}, {RR_MAX_MS:g}] ms")
    beat_times = np.cumsum(rr) / 1000.0
    n = int(round((beat_times[-1] + PULSE_WIDTH_S) * fs))
    x = _render_beats(beat_times, fs, n, dicrotic)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_sigma, size=n)
    return PpgTrace(subject_id, fs, x, annotations, suds)


def plan_rr(mean_rr_ms: float, lf_ms: float, hf_ms: float, span_s: float,
            t0_s: float = 0.0) -> np.ndarray:
    """RR plan with sinusoidal LF (0.1 Hz) and HF (0.25 Hz) modulation.

    Beats accumulate from t0_s until the span is covered; modulation phase
    runs on absolute time so concatenated spans stay coherent.
    """
    rr = []
    t = t0_s
    while t < t0_s + span_s:
        r = mean_rr_ms + lf_ms * math.sin(2 * math.pi * 0.1 * t) \
            + hf_ms * math.sin(2 * math.pi * 0.25 * t)
        r = min(RR_MAX_MS, max(RR_MIN_MS, r))
        rr.append(r)
        t += r / 1000.0
    return np.array(rr)


def synth_cohort(spec: SynthCohortSpec) -> Dataset:
    """Deterministic cohort: per subject one Relaxing then one Stressful span."""
    traces = []
    for i in range(spec.n_subjects):
        rng = np.random.default_rng([spec.seed, i])
        rr_relax = plan_rr(60000.0 / spec.relaxed_hr, *spec.relaxed_hrv, spec.span_s)
        t_switch = float(np.sum(rr_relax)) / 1000.0
        rr_stress = plan_rr(60000.0 / spec.stressed_hr, *spec.stressed_hrv,
                            spec.span_s, t0_s=t_switch)
        rr_plan = np.concatenate([rr_relax, rr_stress])
        duration = float(np.sum(rr_plan)) / 1000.0
        spans = (
            ConditionSpan(0.0, t_switch, Condition.RELAXING),
            ConditionSpan(t_switch, duration, Condition.STRESSFUL),
        )
        # SUDs every 2 minutes; last rating nudged inside the trace.
        ratings = []
        k = 1
        while k * 120.0 <= duration + 60.0:
            t = min(k * 120.0, duration - 0.1)
            low, high = ((5, 25) if spans[0].contains(t) else (55, 90))
            ratings.append(SudsRating(t, int(rng.integers(low, high + 1))))
            k += 1
        traces.append(synth_ppg(
            rr_plan, spec.fs, spec.noise_sigma, seed=int(rng.integers(2**31)),
            subject_id=f"S{i + 1:02d}", annotations=spans, suds=tuple(ratings),
        ))
    return Dataset(tuple(traces))


# ---------------------------------------------------------------------------
# On-disk manifest format
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write manifest.json plus per-subject signal/annotation/SUDs CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    subjects = []
    for tr in ds:
        sid = tr.subject_id
        sig, ann, sud = f"{sid}_ppg.csv", f"{sid}_annotations.csv", f"{sid}_suds.csv"
        with open(out / sig, "w", newline="") as f:
            f.write("ppg\n")
            f.writelines(FLOAT_FMT % v + "\n" for v in tr.samples)
        with open(out / ann, "w", newline="") as f:
            f.write("start_s,end_s,condition\n")
            for sp in tr.annotations:
                f.write(f"{FLOAT_FMT % sp.start_s},{FLOAT_FMT % sp.end_s},"
                        f"{sp.condition.name.lower()}\n")
        with open(out / sud, "w", newline="") as f:
            f.write("time_s,value\n")
            for r in tr.suds:
                f.write(f"{FLOAT_FMT % r.time_s},{r.value}\n")
        subjects.append({"id": sid, "fs": tr.fs, "signal": sig,
                         "annotations": ann, "suds": sud})
    manifest = out / "manifest.json"
    with open(manifest, "w") as f:
        json.dump({"subjects": subjects}, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def _check_header(path: Path, header: list[str], subject: str) -> None:
    """Require a cohort CSV to exist and to start with `header`."""
    if not path.exists():
        raise ValidationError(f"subject {subject}: file not found: {path}")
    with open(path, errors="replace") as f:
        first = f.readline()
    got = first.rstrip("\n").split(",")
    if [h.strip() for h in got] != header:
        raise ValidationError(f"subject {subject}: " + (
            f"{path} header {got} != {header}" if first else f"empty file {path}"))


def _rows(base: Path, name: str, header: list[str], subject: str, parse,
          what: str) -> list:
    """`parse(*fields)` of each non-blank line of `base / name`; a ValueError or
    ValidationError from it, or a wrong field count, names the line."""
    _check_header(base / name, header, subject)
    out = []
    with open(base / name, errors="replace") as f:  # a bad byte fails as non-ASCII
        for lineno, line in enumerate(f, start=1):
            if lineno == 1 or line == "\n":
                continue
            fields = line.rstrip("\n").split(",")
            try:
                if len(fields) != len(header):
                    raise ValueError
                out.append(parse(*fields))
            except (ValueError, ValidationError) as e:
                why = e if isinstance(e, ValidationError) else f"bad {what}"
                raise ValidationError(
                    f"subject {subject}: {why} at {name}:{lineno}") from None
    return out


def _number(text: str) -> float:
    """`float` on the grammar that `np.loadtxt` reads: ASCII, no `_` separators."""
    if not text.strip().isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _samples(base: Path, name: str, subject: str) -> np.ndarray:
    """The signal column, parsed by one `np.loadtxt` call. If that fails, or
    finds no samples and warns, `_rows` parses the file to name the bad line."""
    _check_header(base / name, ["ppg"], subject)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            x = np.loadtxt(base / name, delimiter=",", skiprows=1, comments=None, ndmin=2)
            if x.shape[1] == 1:
                return x[:, 0]
        except (ValueError, UserWarning):
            pass
    return np.array(_rows(base, name, ["ppg"], subject, _number, "sample"), dtype=float)


def _rating(time: str, value: str) -> SudsRating:
    time_s, v = _number(time), _number(value)
    if not math.isfinite(time_s):
        raise ValidationError(f"SUDs time must be finite, got {time!r}")
    if not v.is_integer():  # nan and inf included
        raise ValidationError(f"SUDs must be a whole number, got {value!r}")
    return SudsRating(time_s, int(v))


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset from the manifest format written by save_dataset."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ValidationError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise ValidationError(f"malformed manifest {manifest_path}: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("subjects"), list):
        raise ValidationError(f"manifest {manifest_path} has no 'subjects' list")
    base = manifest_path.parent
    traces = []
    keys = ("id", "fs", "signal", "annotations", "suds")
    for i, entry in enumerate(doc["subjects"], start=1):
        if not (isinstance(entry, dict) and set(keys) <= entry.keys()):
            raise ValidationError(f"manifest subject {i} is not an object with keys "
                                  f"{', '.join(keys)}: {entry!r}")
        sid = str(entry["id"])
        traces.append(PpgTrace(
            sid, entry["fs"], _samples(base, entry["signal"], sid),
            tuple(_rows(base, entry["annotations"], ["start_s", "end_s", "condition"],
                        sid, lambda start, end, condition: ConditionSpan(
                            _number(start), _number(end), Condition.parse(condition)),
                        "annotation")),
            tuple(_rows(base, entry["suds"], ["time_s", "value"], sid, _rating,
                        "SUDs row"))))
    return Dataset(tuple(traces))
