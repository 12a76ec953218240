"""The benchmark's workloads: what each sets up and which job it times.

A workload's job is split into operations (one sweep size, one LOSO model
or one U test); each operation's output is later checked on its own, so a
wrong or raising operation counts as one failure. The model seed is fixed:
the workload seed only chooses the synthetic cohort.
"""

from __future__ import annotations

import shutil
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import fingerprint as fp
from ppgstress import evaluate, hrv, io, models, windows
from spans import patched

STEP_S = 5.0
K = 35
MODEL_SEED = 0
# The synthetic cohorts plant a strong condition effect, so every LOSO run
# and sweep size must reach the repository's acceptance gate, and the
# planted SUDs ratings must separate the conditions.
MIN_ACCURACY = 0.9
MAX_U_P = 0.05


class Predictions:
    """Records every `predict_proba` result, one entry per LOSO fold."""

    def __init__(self):
        self.calls: list[np.ndarray] = []

    @contextmanager
    def recording(self):
        def make(fn):
            def recorded(model, X):
                p = fn(model, X)
                self.calls.append(np.asarray(p))
                return p
            return recorded
        with ExitStack() as stack:
            for cls in (models.LdaModel, models.KnnModel, models.SgdModel):
                stack.enter_context(patched(cls, "predict_proba", make))
            yield self

    def take(self) -> list[np.ndarray]:
        calls, self.calls = self.calls, []
        return calls


def cohort(n_subjects: int, span_s: float, seed: int) -> io.Dataset:
    return io.synth_cohort(io.SynthCohortSpec(n_subjects=n_subjects,
                                              span_s=span_s, seed=seed))


@dataclass(frozen=True)
class SweepInput:
    cohort: io.Dataset
    manifest: Path


@dataclass(frozen=True)
class Sweep:
    """Saved cohort -> load_dataset -> sweep_windows -> suds_report."""

    name: str
    n_subjects: int
    sizes: tuple[float, ...]
    model: str = "lda"
    span_s: float = 420.0

    def ops(self) -> list[str]:
        return [f"sweep.{s:g}" for s in self.sizes] + ["utest"]

    def setup(self, seed: int, workdir: Path) -> SweepInput:
        out = workdir / "cohort"
        shutil.rmtree(out, ignore_errors=True)
        ds = cohort(self.n_subjects, self.span_s, seed)
        return SweepInput(ds, io.save_dataset(ds, out))

    def job(self, inp: SweepInput, preds: Predictions) -> dict:
        """Outputs by operation name; a raised exception stands for its output."""
        try:
            loaded = io.load_dataset(inp.manifest)
        except Exception as e:
            return {"loaded": e, **dict.fromkeys(self.ops(), e)}
        out = {"loaded": loaded}
        try:
            rows = evaluate.sweep_windows(loaded, self.sizes, STEP_S, K,
                                          self.model, MODEL_SEED)
            calls = preds.take()
            n = len(calls) // len(rows)
            for i, (size, row) in enumerate(zip(self.sizes, rows)):
                out[f"sweep.{size:g}"] = (row, calls[i * n:(i + 1) * n])
        except Exception as e:
            out.update({f"sweep.{s:g}": e for s in self.sizes})
        try:
            out["utest"] = evaluate.suds_report(loaded).utest
        except Exception as e:
            out["utest"] = e
        return out

    def n_windows(self, inp: SweepInput) -> int:
        """Windows `segment` yields over all sizes: the job's unit of work."""
        return sum(len(windows.segment(t, windows.WindowSpec(s, STEP_S)))
                   for s in self.sizes for t in inp.cohort)

    def fingerprint(self, inp: SweepInput, out: dict) -> dict:
        ops = {}
        for op in self.ops():
            res = out[op]
            if isinstance(res, Exception):
                ops[op] = {"error": repr(res)}
            elif op == "utest":
                ops[op] = asdict(res)
            else:
                row, calls = res
                ops[op] = {**row, "folds": [fp.fold_digest(p) for p in calls]}
        loaded = out["loaded"]
        inputs = ({"error": repr(loaded)} if isinstance(loaded, Exception)
                  else fp.dataset_digest(loaded))
        return {"inputs": inputs, "ops": ops}

    def check(self, inp: SweepInput, out: dict) -> list[tuple[str, str]]:
        """(operation or "inputs", problem) for every invariant broken."""
        problems = []
        loaded = out["loaded"]
        if not isinstance(loaded, Exception):
            problems += [("inputs", f"loaded dataset differs from the saved one at {p}")
                         for p in _dataset_diff(loaded, inp.cohort)]
        for size in self.sizes:
            op, res = f"sweep.{size:g}", out[f"sweep.{size:g}"]
            if isinstance(res, Exception):
                continue
            row, calls = res
            if row["window_s"] != size:
                problems.append((op, f"row for {row['window_s']} s"))
            if len(calls) != self.n_subjects:
                problems.append((op, f"{len(calls)} folds"))
            problems += [(op, msg) for msg in _proba_problems(calls)]
            if min(row["mean_accuracy"], row["pooled_accuracy"]) < MIN_ACCURACY:
                problems.append((op, f"accuracy below {MIN_ACCURACY}: {row}"))
        u = out["utest"]
        if not isinstance(u, Exception):
            n_ratings = sum(len(t.suds) for t in inp.cohort)
            if u.n1 + u.n2 != n_ratings or not 0 <= u.u <= u.n1 * u.n2 / 2 \
                    or not u.p_two_tailed < MAX_U_P:
                problems.append(("utest", f"unexpected result {u}"))
        return problems


@dataclass(frozen=True)
class Eval:
    """Prebuilt 80 s / 5 s feature matrix -> loso_matrix per model."""

    name: str
    n_subjects: int
    models: tuple[str, ...]
    span_s: float = 420.0

    def ops(self) -> list[str]:
        return [f"loso.{m}" for m in self.models]

    def setup(self, seed: int, workdir: Path) -> windows.FeatureMatrix:
        ds = cohort(self.n_subjects, self.span_s, seed)
        return windows.build_matrix(ds, windows.WindowSpec(80.0, STEP_S))

    def job(self, matrix: windows.FeatureMatrix, preds: Predictions) -> dict:
        out = {}
        for kind in self.models:
            try:
                report = evaluate.loso_matrix(matrix, K, kind, MODEL_SEED)
                out[f"loso.{kind}"] = (report, preds.take())
            except Exception as e:
                preds.take()
                out[f"loso.{kind}"] = e
        return out

    def n_windows(self, matrix: windows.FeatureMatrix) -> int:
        """Matrix rows times models evaluated."""
        return matrix.n_rows * len(self.models)

    def fingerprint(self, matrix: windows.FeatureMatrix, out: dict) -> dict:
        ops = {}
        for op in self.ops():
            res = out[op]
            if isinstance(res, Exception):
                ops[op] = {"error": repr(res)}
                continue
            report, calls = res
            ops[op] = {
                "mean_accuracy": report.mean_accuracy,
                "pooled_accuracy": report.pooled_accuracy,
                "folds": [{"subject": f.subject_id, "accuracy": f.accuracy,
                           **fp.fold_digest(p)}
                          for f, p in zip(report.folds, calls)],
            }
        return {"inputs": fp.matrix_digest(matrix), "ops": ops}

    def check(self, matrix: windows.FeatureMatrix,
              out: dict) -> list[tuple[str, str]]:
        """(operation or "inputs", problem) for every invariant broken."""
        problems = [("inputs", msg) for msg in _matrix_problems(matrix)]
        subjects = list(dict.fromkeys(matrix.subjects))
        subject_of = np.array(matrix.subjects)
        for op in self.ops():
            res = out[op]
            if isinstance(res, Exception):
                continue
            report, calls = res
            if [f.subject_id for f in report.folds] != subjects \
                    or len(calls) != len(subjects):
                problems.append((op, "folds do not match the matrix subjects"))
                continue
            problems += [(op, msg) for msg in _proba_problems(calls)]
            for fold, p in zip(report.folds, calls):
                truth = matrix.labels[subject_of == fold.subject_id]
                if len(p) != len(truth) or fold.n_windows != len(truth):
                    problems.append((op, f"fold {fold.subject_id}: row count"))
                elif np.mean((p >= 0.5) == truth) != fold.accuracy:
                    problems.append((op, f"fold {fold.subject_id}: predictions "
                                         "disagree with the reported accuracy"))
            if report.mean_accuracy < MIN_ACCURACY:
                problems.append((op, f"mean accuracy {report.mean_accuracy}"))
        return problems


def _proba_problems(calls: list[np.ndarray]) -> list[str]:
    return [f"fold {i}: probabilities outside [0, 1]"
            for i, p in enumerate(calls)
            if not (np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1)))]


def _matrix_problems(m: windows.FeatureMatrix) -> list[str]:
    problems = []
    if m.columns != hrv.FEATURE_NAMES or not np.all(np.isfinite(m.X)):
        problems.append("matrix columns or values are not the finite catalog")
    if not set(np.unique(m.labels)) <= {0, 1}:
        problems.append("labels outside {0, 1}")
    keys = set(zip(m.subjects, m.labels.tolist(), np.round(m.starts, 6).tolist()))
    if len(keys) != m.n_rows:
        problems.append("duplicate row keys")
    subjects = np.array(m.subjects)
    problems += [f"subject {sid} lacks one class" for sid in dict.fromkeys(m.subjects)
                 if len(np.unique(m.labels[subjects == sid])) != 2]
    return problems


def _dataset_diff(got: io.Dataset, ref: io.Dataset) -> list[str]:
    """Paths at which two datasets differ beyond fingerprint.REL."""
    diffs = fp.compare(fp.dataset_digest(got), fp.dataset_digest(ref))
    for g, r in zip(got, ref):
        if len(g.samples) == len(r.samples) and np.max(np.abs(
                g.samples - r.samples)) > fp.REL * np.max(np.abs(r.samples)):
            diffs.append(f"/{g.subject_id}/samples")
    return diffs


WORKLOADS = {w.name: w for w in (
    Sweep("sweep16", 16, tuple(float(s) for s in range(60, 121, 5))),
    Eval("eval16", 16, ("lda", "knn", "sgd")),
    Eval("eval64", 64, ("lda", "knn")),
)}
