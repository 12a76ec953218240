"""In-memory span tracer that instruments ppgstress from the outside.

The package is never edited: `Tracer.installed()` swaps each public layer
function (and every alias of it made by `from .x import y`, including the
package's re-exports) and the named methods for timing wrappers, and puts
the originals back on exit. A span records its name, its parent span and
its start and end; self time is the span's duration minus the time its
child spans cover. Counts are taken at the same boundaries from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from ppgstress import dsp, errors, evaluate, hrv, io, models, pulse, windows

FLAG_REASONS = ("too_many_rejected_intervals", "hf_zero", "no_lf_hf_power",
                "degenerate_poincare")


def _save_bytes(counts, args, result):
    manifest = Path(result)
    doc_files = [manifest] + sorted(p for p in manifest.parent.iterdir()
                                    if p.suffix == ".csv")
    counts["io.save_bytes"] += sum(p.stat().st_size for p in doc_files)


def _load_samples(counts, args, result):
    counts["io.load_samples"] += sum(len(t.samples) for t in result)


def _peaks(counts, args, result):
    counts["pulse.peaks"] += len(result)


def _rr_rejected(counts, args, result):
    counts["pulse.rr_rejected"] += result.n_rejected


def _segmented(counts, args, result):
    counts["hrv.windows_attempted"] += len(result)


def _kept(counts, args, result):
    counts["hrv.windows_kept"] += result.n_rows


def _window_outcome(counts, args, result):
    # A window is dropped for its first flag, so that the reasons add up to
    # the dropped windows; a window refused with a DataError counts as
    # hrv.all_features.data_errors.
    if result.flags:
        counts["hrv.windows_dropped." + result.flags[0]] += 1


def _sgd_steps(counts, args, result):
    counts["models.sgd_steps"] += len(result.loss_per_epoch) * len(args[0])


def _knn_bytes(counts, args, result):
    # Size of the (n_test, n_train, d) float64 difference array it broadcasts.
    model, X = args[0], np.atleast_2d(args[1])
    counts["models.knn_distance_bytes"] += X.shape[0] * model.X.size * 8


def _folds(counts, args, result):
    counts["evaluate.folds"] += len(result.folds)


# (owner, attribute, span name, count hook). Module functions are patched
# under every name that refers to them inside the package.
TARGETS = (
    (io, "synth_cohort", "io.synth", None),
    (io, "save_dataset", "io.save", _save_bytes),
    (io, "load_dataset", "io.load", _load_samples),
    (dsp, "filtfilt", "dsp.filtfilt", None),
    (dsp, "welch_psd", "dsp.welch", None),
    (pulse, "detect_peaks", "pulse.detect_peaks", _peaks),
    (pulse, "to_rr", "pulse.to_rr", _rr_rejected),
    (pulse, "slice_window", "pulse.slice_window", None),
    (hrv, "all_features", "hrv.all_features", _window_outcome),
    (hrv, "time_domain", "hrv.time_domain", None),
    (hrv, "frequency_domain", "hrv.frequency_domain", None),
    (hrv, "nonlinear", "hrv.nonlinear", None),
    (windows, "segment", "windows.segment", _segmented),
    (windows, "build_matrix", "windows.build_matrix", _kept),
    (windows, "anova_f", "windows.anova_f", None),
    (windows, "select_top_k", "windows.select_top_k", None),
    (windows, "standardize", "windows.standardize", None),
    (windows.FeatureMatrix, "rows_for", "windows.fold_split", None),
    (windows.FeatureMatrix, "take", "windows.fold_split", None),
    (windows.FeatureMatrix, "with_columns", "windows.fold_split", None),
    (models, "lda_fit", "models.lda_fit", None),
    (models, "knn_fit", "models.knn_fit", None),
    (models, "sgd_logistic_fit", "models.sgd_fit", _sgd_steps),
    (models.LdaModel, "predict_proba", "models.lda_predict", None),
    (models.KnnModel, "predict_proba", "models.knn_predict", _knn_bytes),
    (models.SgdModel, "predict_proba", "models.sgd_predict", None),
    (evaluate, "loso_matrix", "evaluate.loso_matrix", _folds),
    (evaluate, "sweep_windows", "evaluate.sweep_windows", None),
    (evaluate, "mann_whitney_u", "evaluate.mann_whitney", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNT_NAMES = ("io.save_bytes", "io.load_samples", "pulse.peaks",
               "pulse.rr_rejected", "hrv.windows_attempted", "hrv.windows_kept",
               *("hrv.windows_dropped." + r for r in FLAG_REASONS),
               "models.sgd_steps", "models.knn_distance_bytes", "evaluate.folds")


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace `owner.attr` by `make_wrapper(original)` for the duration.

    For a module function every alias of it inside the package is replaced
    too; for a class the method is replaced on the class.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        sites = [(mod, name)
                 for mod_name, mod in list(sys.modules.items())
                 if mod_name == "ppgstress" or mod_name.startswith("ppgstress.")
                 for name, value in vars(mod).items() if value is original]
    for site, name in sites:
        setattr(site, name, wrapper)
    try:
        yield
    finally:
        for site, name in sites:
            setattr(site, name, original)


class Tracer:
    """Spans and counts of one traced run, kept in memory until `metrics()`."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed = False

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, hook):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                except errors.DataError:
                    self.counts[name + ".data_errors"] += 1
                    raise
                finally:
                    self._close(sid)
                if hook is not None:
                    hook(self.counts, args, result)
                return result
            return traced
        return make

    @contextmanager
    def installed(self):
        """Instrument every target while the block runs (not re-entrant)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        with ExitStack() as stack:
            stack.callback(setattr, self, "_installed", False)
            for owner, attr, name, hook in TARGETS:
                stack.enter_context(patched(owner, attr, self._wrap(name, hook)))
            yield self

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        inner = np.bincount(parents[parents >= 0], weights=dur[parents >= 0],
                            minlength=len(dur))
        return dict(enumerate(dur - inner))

    def metrics(self) -> dict[str, float]:
        """Summed self time per span name (`<name>_s`) and every count."""
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for sid, t in self.self_times().items():
            totals[self.names[sid]] = totals.get(self.names[sid], 0.0) + t
        out = {f"{name}_s": t for name, t in totals.items()}
        out.update({name: self.counts[name] for name in COUNT_NAMES})
        out["hrv.windows_dropped.data_error"] = self.counts["hrv.all_features.data_errors"]
        attempted = self.counts["hrv.windows_attempted"]
        out["hrv.kept_frac"] = (self.counts["hrv.windows_kept"] / attempted
                                if attempted else 0.0)
        return out

