"""Self-tests of the benchmark: its checks can fail and its counts repeat.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
They use three-subject cohorts with short spans so they finish in seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import fingerprint  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ppgstress import dsp, evaluate, hrv, models, windows  # noqa: E402

MINI_EVAL = workloads.Eval("mini_eval", 3, ("lda", "knn", "sgd"), span_s=200.0)
MINI_SWEEP = workloads.Sweep("mini_sweep", 3, (60.0, 80.0), span_s=200.0)


@pytest.fixture(scope="module")
def workdir():
    path = HERE.parent.parent / ".perfbench_run" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_job(workload, inp, tracer=None):
    preds = workloads.Predictions()
    with preds.recording():
        return run.run_job(workload, inp, preds, tracer)[1]


@pytest.fixture(scope="module")
def eval_case(workdir):
    matrix = MINI_EVAL.setup(5, workdir)
    out = run_job(MINI_EVAL, matrix)
    return matrix, out, MINI_EVAL.fingerprint(matrix, out)


def test_clean_outputs_pass(eval_case):
    matrix, out, ref = eval_case
    _, problems, failed = run.verify(MINI_EVAL, matrix, out, {"reference": ref})
    assert problems == [] and failed == set()


def test_flipped_label_fails_one_operation(eval_case):
    matrix, out, ref = eval_case
    report, calls = out["loso.knn"]
    flipped = [p.copy() for p in calls]
    flipped[1][4] = 1.0 - flipped[1][4]
    bad = {**out, "loso.knn": (report, flipped)}
    _, problems, failed = run.verify(MINI_EVAL, matrix, bad, {"reference": ref})
    assert failed == {"loso.knn"}
    # The invariants alone catch it too, for seeds without a reference.
    assert run.verify(MINI_EVAL, matrix, bad, {})[2] == {"loso.knn"}


@pytest.mark.parametrize("rel, caught", [(1e-6, True), (1e-13, False)])
def test_shifted_feature_fails_every_operation(eval_case, rel, caught):
    matrix, out, ref = eval_case
    X = matrix.X.copy()
    X[7, 3] *= 1.0 + rel
    shifted = windows.FeatureMatrix(matrix.subjects, matrix.labels,
                                    matrix.starts, X, matrix.columns)
    failed = run.verify(MINI_EVAL, shifted, out, {"reference": ref})[2]
    assert failed == (set(MINI_EVAL.ops()) if caught else set())


def test_raised_operation_counts_as_failed(eval_case):
    matrix, out, ref = eval_case
    bad = {**out, "loso.sgd": RuntimeError("boom")}
    assert run.verify(MINI_EVAL, matrix, bad, {"reference": ref})[2] == {"loso.sgd"}


def test_sweep_checks(workdir):
    inp = MINI_SWEEP.setup(5, workdir)
    out = run_job(MINI_SWEEP, inp)
    ref = MINI_SWEEP.fingerprint(inp, out)
    assert run.verify(MINI_SWEEP, inp, out, {"reference": ref})[2] == set()
    loaded = out["loaded"]
    trace = loaded.traces[0]
    samples = trace.samples.copy()
    samples[100] += 1e-3
    corrupt = type(loaded)((type(trace)(trace.subject_id, trace.fs, samples,
                                        trace.annotations, trace.suds),
                            *loaded.traces[1:]))
    failed = run.verify(MINI_SWEEP, inp, {**out, "loaded": corrupt}, {})[2]
    assert failed == set(MINI_SWEEP.ops())
    u = out["utest"]
    bad_u = type(u)(u.u + 1, u.z, u.p_two_tailed, u.n1, u.n2, u.method)
    assert run.verify(MINI_SWEEP, inp, {**out, "utest": bad_u},
                      {"reference": ref})[2] == {"utest"}


def traced_metrics(workload, seed, workdir):
    tracer = spans.Tracer()
    with tracer.installed():
        inp = workload.setup(seed, workdir)
    run_job(workload, inp, tracer)
    return tracer.metrics()


@pytest.mark.parametrize("workload", [MINI_EVAL, MINI_SWEEP], ids=lambda w: w.name)
def test_counts_repeat_exactly(workload, workdir):
    first = traced_metrics(workload, 3, workdir)
    second = traced_metrics(workload, 3, workdir)
    counts = [n for n in first if not n.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["hrv.windows_attempted"] > 0 and first["pulse.peaks"] > 0
    assert first["hrv.windows_attempted"] == first["hrv.windows_kept"] + sum(
        first[n] for n in counts if n.startswith("hrv.windows_dropped."))
    if workload is MINI_EVAL:
        assert first["models.sgd_steps"] > 0 and first["evaluate.folds"] == 9
        assert first["models.knn_distance_bytes"] > 0
    else:
        assert first["io.save_bytes"] > 0 and first["io.load_samples"] > 0


def test_tracer_restores_every_alias():
    originals = (dsp.filtfilt, windows.filtfilt, hrv.welch_psd,
                 evaluate.build_matrix, models.KnnModel.predict_proba)
    tracer = spans.Tracer()
    with tracer.installed():
        assert windows.filtfilt is dsp.filtfilt is not originals[0]
        assert hrv.welch_psd is dsp.welch_psd
        assert evaluate.build_matrix is windows.build_matrix is not originals[3]
    assert (dsp.filtfilt, windows.filtfilt, hrv.welch_psd, evaluate.build_matrix,
            models.KnnModel.predict_proba) == originals


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10000))
        with tracer.span("b"):
            sum(range(10000))
    self_times = tracer.self_times()
    root = tracer.ends[0] - tracer.starts[0]
    assert sum(self_times.values()) == pytest.approx(root, rel=1e-9)
    assert all(t >= 0 for t in self_times.values())


def test_compare_tolerances():
    ref = {"x": 1.0, "p_sum": 0.5, "labels": "0101", "n": 4}
    assert fingerprint.compare({**ref, "x": 1.0 + 1e-12}, ref) == []
    assert fingerprint.compare({**ref, "x": 1.0 + 1e-8}, ref) == ["/x"]
    assert fingerprint.compare({**ref, "p_sum": 0.5 + 2e-9}, ref) == ["/p_sum"]
    assert fingerprint.compare({**ref, "labels": "0111"}, ref) == ["/labels"]
    assert fingerprint.compare({**ref, "n": 5}, ref) == ["/n"]
    assert fingerprint.compare({"x": [1.0, 2.0]}, {"x": [1.0]}) == ["/x"]


def test_fold_digest_labels_follow_threshold():
    d = fingerprint.fold_digest(np.array([0.0, 0.5, 0.4999, 1.0]))
    assert d["labels"] == "0101" and d["n"] == 4
