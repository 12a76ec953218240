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
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (DataError, ValidationError, check_array, check_real, check_seed,
                     check_subject_id, is_whole)
from .pulse import RR_MAX_MS, RR_MIN_MS

# Signal samples on disk. 12 significant digits do not round-trip every
# float64: cohort16's reloaded samples differ by up to 5.0e-12 (ROADMAP item 15).
# Span and SUDs times are written with `repr`, which does: a span that ends at
# the trace's end, n / fs, must not load as ending past it.
FLOAT_FMT = "%.12g"
MIN_FS_HZ = 25.0  # the lowest sampling rate a trace or a synthetic cohort may have
_CHUNK = 4096  # signal samples formatted by one `%`: about 60 kB of text


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
        if not isinstance(self.condition, Condition):
            raise ValidationError("span condition must be Condition.RELAXING or "
                                  f"Condition.STRESSFUL, got {self.condition!r}")
        for name, what in (("start_s", "span start"), ("end_s", "span end")):
            value = check_real(getattr(self, name), what)
            if not math.isfinite(value):
                raise ValidationError(f"{what} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
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
        time_s = check_real(self.time_s, "SUDs time")
        if not math.isfinite(time_s):
            raise ValidationError(f"SUDs time must be finite, got {self.time_s!r}")
        object.__setattr__(self, "time_s", time_s)
        value = check_real(self.value, "SUDs")
        if not value.is_integer():  # nan and inf included
            raise ValidationError(f"SUDs must be a whole number, got {self.value!r}")
        if not 0 <= value <= 100:
            raise ValidationError(f"SUDs out of [0,100]: {self.value}")
        object.__setattr__(self, "value", int(value))


@dataclass(frozen=True)
class PpgTrace:
    subject_id: str
    fs: float
    samples: np.ndarray
    annotations: tuple[ConditionSpan, ...] = ()
    suds: tuple[SudsRating, ...] = ()

    def __post_init__(self):
        check_subject_id(self.subject_id)
        object.__setattr__(self, "fs", _check_fs(self.fs, f"subject {self.subject_id}: "))
        samples = check_array(self.samples, f"subject {self.subject_id}: PPG samples")
        object.__setattr__(self, "samples", samples.astype(float, copy=False))
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError(f"subject {self.subject_id}: non-finite PPG samples")
        for what, items, kind in (("annotations", self.annotations, ConditionSpan),
                                  ("SUDs ratings", self.suds, SudsRating)):
            if bad := ([x for x in items if not isinstance(x, kind)]
                       if isinstance(items, tuple) else [items]):
                raise ValidationError(f"subject {self.subject_id}: {what} must be "
                                      f"{kind.__name__}s, got {bad[0]!r}")
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
        if bad := ([t for t in self.traces if not isinstance(t, PpgTrace)]
                   if isinstance(self.traces, tuple) else [self.traces]):
            raise ValidationError(f"dataset traces must be PpgTraces, got {bad[0]!r}")
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
        if not (is_whole(self.n_subjects) and self.n_subjects >= 1):
            raise ValidationError(f"n_subjects must be a whole number >= 1, "
                                  f"got {self.n_subjects!r}")
        object.__setattr__(self, "fs", _check_fs(check_real(self.fs, "fs")))
        for name in ("span_s", "relaxed_hr", "stressed_hr"):
            value = check_real(getattr(self, name), name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)
        # plan_rr would clip a nan interval to RR_MIN_MS without complaint.
        for name in ("relaxed_hrv", "stressed_hrv"):
            amps = getattr(self, name)
            amps = tuple(check_real(a, name) for a in amps) if isinstance(amps, tuple) else ()
            if not (len(amps) == 2 and all(map(math.isfinite, amps))):
                raise ValidationError(f"{name} must be two finite amplitudes in ms")
            object.__setattr__(self, name, amps)
        object.__setattr__(self, "noise_sigma", _check_noise(self.noise_sigma))
        check_seed(self.seed)


def _check_fs(fs, who: str = "") -> float:
    """fs as a float; refused, the message prefixed by `who`, unless a real
    number from MIN_FS_HZ to the largest float."""
    # nan fails both comparisons; inf, and an int too large for a float,
    # fail the second.
    if not (isinstance(fs, numbers.Real) and MIN_FS_HZ <= fs <= sys.float_info.max):
        raise ValidationError(f"{who}fs must be a finite number >= {MIN_FS_HZ:g} Hz, "
                              f"got {fs!r}")
    return float(fs)


def _check_noise(noise_sigma) -> float:
    """noise_sigma as a float; refused unless a real number >= 0 and finite."""
    noise_sigma = check_real(noise_sigma, "noise_sigma")
    if not 0 <= noise_sigma < math.inf:
        raise ValidationError("noise_sigma must be >= 0 and finite")
    return noise_sigma


PULSE_WIDTH_S = 0.3
DICROTIC_DELAY_S = 0.25
DICROTIC_AMPLITUDE = 0.3


def _render_beats(beat_times: np.ndarray, fs: float, n: int, dicrotic: bool) -> np.ndarray:
    """Sum one squared-cosine lobe per beat (peak exactly at the beat time).

    All lobes at once: lobe r covers samples i0[r] <= i < i1[r], and
    `np.bincount` adds each sample's terms in input order (beat-major,
    lobe-minor) from 0.0, so overlapping lobes sum as a per-beat loop would.
    """
    half = PULSE_WIDTH_S / 2
    delays, amps = [0.0], [1.0]
    if dicrotic:
        delays.append(DICROTIC_DELAY_S)
        amps.append(DICROTIC_AMPLITUDE)
    c = (beat_times[:, None] + np.array(delays)).ravel()
    amp = np.tile(amps, len(beat_times))
    i0 = np.maximum(0, np.ceil((c - half) * fs).astype(np.intp))
    i1 = np.minimum(n, np.floor((c + half) * fs).astype(np.intp) + 1)
    idx = i0[:, None] + np.arange(np.max(i1 - i0, initial=0))
    mask = idx < i1[:, None]
    rows = np.broadcast_to(np.arange(len(c))[:, None], idx.shape)[mask]
    idx = idx[mask]
    u = idx / fs - c[rows]
    x = np.bincount(idx, amp[rows] * np.cos(np.pi * u / PULSE_WIDTH_S) ** 2,
                    minlength=n)
    return x.astype(float, copy=False)  # empty weights give int zeros


def synth_ppg(rr_plan_ms, fs: float, noise_sigma: float = 0.0, seed: int = 0,
              dicrotic: bool = False) -> PpgTrace:
    """Render a PPG trace whose systolic peaks sit at cumsum(rr_plan).

    Deterministic for a fixed seed; noise is additive Gaussian. The seed and
    noise_sigma must pass `SynthCohortSpec`'s checks. This is the one-subject
    case of `_synth_traces`: a trace of subject "synth", without condition
    spans or SUDs ratings.
    """
    return _synth_traces(rr_plan_ms, fs, noise_sigma, dicrotic, (), [("synth", seed, ())])[0]


def _synth_traces(rr_plan_ms, fs: float, noise_sigma: float, dicrotic: bool,
                  annotations: tuple[ConditionSpan, ...], subjects) -> list[PpgTrace]:
    """One trace per `(subject_id, seed, suds)` of `subjects`: the pulse train
    of the shared RR plan, rendered once, plus the noise of the subject's seed."""
    rr = check_array(rr_plan_ms, "rr_plan").astype(float, copy=False)
    if rr.size == 0:
        raise DataError("rr_plan is empty")
    # One test for both bounds: nan fails it too.
    if not np.all((rr >= RR_MIN_MS) & (rr <= RR_MAX_MS)):
        raise ValidationError(
            f"rr_plan values must lie in [{RR_MIN_MS:g}, {RR_MAX_MS:g}] ms")
    noise_sigma = _check_noise(noise_sigma)
    for _, seed, _ in subjects:
        check_seed(seed)
    beat_times = np.cumsum(rr) / 1000.0
    n = int(round((beat_times[-1] + PULSE_WIDTH_S) * fs))
    clean = _render_beats(beat_times, fs, n, dicrotic)
    traces = []
    for subject_id, seed, suds in subjects:
        x = np.random.default_rng(seed).normal(0.0, noise_sigma, size=n)  # zeros at sigma 0
        x += clean  # clean holds no -0.0, so at sigma 0 this is clean, bit for bit
        traces.append(PpgTrace(subject_id, fs, x, annotations, suds))
    return traces


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
    # Everything but the rng draws depends on the spec alone.
    rr_relax = plan_rr(60000.0 / spec.relaxed_hr, *spec.relaxed_hrv, spec.span_s)
    t_switch = float(np.sum(rr_relax)) / 1000.0
    rr_stress = plan_rr(60000.0 / spec.stressed_hr, *spec.stressed_hrv,
                        spec.span_s, t0_s=t_switch)
    rr_plan = np.concatenate([rr_relax, rr_stress])
    duration = float(np.sum(rr_plan)) / 1000.0
    spans = (ConditionSpan(0.0, t_switch, Condition.RELAXING),
             ConditionSpan(t_switch, duration, Condition.STRESSFUL))
    # SUDs times, every 2 minutes with the last nudged inside, and their ranges.
    suds_at = []
    k = 1
    while k * 120.0 <= duration + 60.0:
        t = min(k * 120.0, duration - 0.1)
        suds_at.append((t, (5, 25) if spans[0].contains(t) else (55, 90)))
        k += 1
    subjects = []
    for i in range(spec.n_subjects):
        rng = np.random.default_rng([spec.seed, i])
        ratings = tuple(SudsRating(t, int(rng.integers(low, high + 1)))
                        for t, (low, high) in suds_at)
        subjects.append((f"S{i + 1:02d}", int(rng.integers(2**31)), ratings))
    return Dataset(tuple(_synth_traces(rr_plan, spec.fs, spec.noise_sigma, False,
                                       spans, subjects)))


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
            for lo in range(0, len(tr.samples), _CHUNK):
                chunk = tr.samples[lo:lo + _CHUNK].tolist()
                f.write((FLOAT_FMT + "\n") * len(chunk) % tuple(chunk))
        with open(out / ann, "w", newline="") as f:
            f.write("start_s,end_s,condition\n")
            for sp in tr.annotations:
                f.write(f"{sp.start_s!r},{sp.end_s!r},{sp.condition.name.lower()}\n")
        with open(out / sud, "w", newline="") as f:
            f.write("time_s,value\n")
            for r in tr.suds:
                f.write(f"{r.time_s!r},{r.value}\n")
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
        # The id names the subject in the errors below; the others are file names.
        for key in ("id", "signal", "annotations", "suds"):
            if not isinstance(entry[key], str):
                raise ValidationError(f"manifest subject {i}: {key} must be a string, "
                                      f"got {entry[key]!r}")
        sid = entry["id"]
        traces.append(PpgTrace(
            sid, entry["fs"], _samples(base, entry["signal"], sid),
            tuple(_rows(base, entry["annotations"], ["start_s", "end_s", "condition"],
                        sid, lambda start, end, condition: ConditionSpan(
                            _number(start), _number(end), Condition.parse(condition)),
                        "annotation")),
            tuple(_rows(base, entry["suds"], ["time_s", "value"], sid,
                        lambda time, value: SudsRating(_number(time), _number(value)),
                        "SUDs row"))))
    return Dataset(tuple(traces))
