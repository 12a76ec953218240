import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppgstress import evaluate, io, windows
from ppgstress.errors import DataError, ValidationError


class TestMetrics:
    def test_perfect(self):
        acc, conf = evaluate.metrics([1, 0, 1], [1, 0, 1])
        assert acc == 1.0

    def test_complement(self):
        acc, _ = evaluate.metrics([1, 0], [0, 1])
        assert acc == 0.0

    def test_counts(self):
        acc, conf = evaluate.metrics([1, 0, 1, 1], [1, 0, 0, 1])
        assert acc == 0.75
        assert conf == {"tp": 2, "tn": 1, "fn": 1, "fp": 0}

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate.metrics([1], [1, 0])

    @pytest.mark.parametrize("y_true,y_pred,shown", [([2, 0], [1, 0], "2"),
                                                     ([1, 0], [1, -1], "-1"),
                                                     ([1], [0.5], "0.5")])
    def test_labels_outside_zero_one_refused(self, y_true, y_pred, shown):
        # The counts come from one bincount over 2 * y_true + y_pred.
        with pytest.raises(ValidationError, match=f"^labels must be 0 or 1, got {shown}$"):
            evaluate.metrics(y_true, y_pred)

    def test_bool_and_float_labels(self):
        acc, conf = evaluate.metrics([True, False, True], [1.0, 1.0, 0.0])
        assert acc == 1 / 3
        assert conf == {"tp": 1, "tn": 0, "fp": 1, "fn": 1}

    def test_fold_metrics_are_each_fold_alone(self):
        rng = np.random.default_rng(5)
        sizes = [1, 7, 3, 40, 2]
        y_true, y_pred = rng.integers(0, 2, (2, sum(sizes)))
        want = []
        for t, p in zip(np.split(y_true, np.cumsum(sizes)[:-1]),
                        np.split(y_pred, np.cumsum(sizes)[:-1])):
            want.append((float(np.mean(t == p)), {
                "tp": int(np.sum((t == 1) & (p == 1))), "tn": int(np.sum((t == 0) & (p == 0))),
                "fp": int(np.sum((t == 0) & (p == 1))), "fn": int(np.sum((t == 1) & (p == 0)))}))
        got = evaluate._fold_metrics(y_true, y_pred, sizes)
        assert got == want
        assert [list(conf) for _, conf in got] == [["tp", "tn", "fp", "fn"]] * len(sizes)


class TestLoso:
    def test_planted_cohort_high_accuracy(self, matrix16):
        rep = evaluate.loso_matrix(matrix16, k=35, model_kind="lda", seed=0)
        assert rep.mean_accuracy >= 0.90
        assert len(rep.folds) == 16
        for fold in rep.folds:
            assert sum(fold.confusion.values()) == fold.n_windows

    def test_shuffled_labels_chance_level(self, matrix16):
        shuffled = evaluate.shuffle_labels(matrix16, seed=3)
        rep = evaluate.loso_matrix(shuffled, k=35, model_kind="lda", seed=0)
        assert 0.40 <= rep.mean_accuracy <= 0.60

    def test_shuffle_independent_of_hash_seed(self):
        # Subject order must not come from a set of strings, whose iteration
        # order changes with the interpreter's string-hash seed.
        script = (
            "import numpy as np\n"
            "from ppgstress import evaluate, windows\n"
            "subjects = tuple(f'S{i:02d}' for i in range(1, 5) for _ in range(10))\n"
            "labels = np.tile(np.r_[np.zeros(5, int), np.ones(5, int)], 4)\n"
            "m = windows.FeatureMatrix(subjects, labels, np.arange(40.0),\n"
            "                          np.zeros((40, 1)), ('f',))\n"
            "print(evaluate.shuffle_labels(m, seed=3).labels.tolist())\n")
        src = str(Path(evaluate.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0] == outputs[1] != ""

    def test_partition_exactness(self, matrix16):
        rep = evaluate.loso_matrix(matrix16, k=35, model_kind="lda", seed=0)
        assert sum(f.n_windows for f in rep.folds) == matrix16.n_rows
        assert [f.subject_id for f in rep.folds] \
            == list(dict.fromkeys(matrix16.subjects))

    def test_mean_invariant_to_duplicated_subject(self, matrix16):
        rep1 = evaluate.loso_matrix(matrix16, k=5, model_kind="lda", seed=0)
        mask = matrix16.rows_for("S01")
        dup = matrix16.take(np.array(mask))
        doubled = type(matrix16)(
            matrix16.subjects + dup.subjects,
            np.r_[matrix16.labels, dup.labels],
            np.r_[matrix16.starts, dup.starts],
            np.r_[matrix16.X, dup.X], matrix16.columns)
        rep2 = evaluate.loso_matrix(doubled, k=5, model_kind="lda", seed=0)
        assert rep2.mean_accuracy == pytest.approx(rep1.mean_accuracy,
                                                   abs=1e-12)

    @pytest.mark.parametrize("kind", ["knn", "sgd"])
    def test_other_models_run(self, matrix16, kind):
        rep = evaluate.loso_matrix(matrix16, k=10, model_kind=kind, seed=0)
        assert 0.0 <= rep.mean_accuracy <= 1.0

    def test_report_json(self, matrix16):
        rep = evaluate.loso_matrix(matrix16, k=35, model_kind="lda", seed=0)
        doc = json.loads(rep.to_json())
        assert doc["config"]["model"] == "lda"
        assert len(doc["folds"]) == 16

    def test_two_subject_minimum(self, matrix16):
        solo = matrix16.take(np.array(matrix16.rows_for("S01")))
        with pytest.raises(DataError):
            evaluate.loso_matrix(solo)

    # numpy raised ValueError for -1 and TypeError for 2.5 and nan; True passed.
    @pytest.mark.parametrize("seed", [-1, 2.5, True, math.nan])
    @pytest.mark.parametrize("kind", ["lda", "knn", "sgd"])
    def test_bad_seed_refused(self, matrix16, kind, seed):
        with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
            evaluate.loso_matrix(matrix16, model_kind=kind, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, math.nan])
    def test_bad_shuffle_seed_refused(self, matrix16, seed):
        with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
            evaluate.shuffle_labels(matrix16, seed=seed)


class TestSweep:
    def test_seven_sizes(self):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=3, seed=2))
        rows = evaluate.sweep_windows(ds, k=10)
        assert len(rows) == 7
        assert [r["window_s"] for r in rows] == [60, 70, 80, 90, 100, 110, 120]
        for r in rows:
            assert r["mean_accuracy"] >= 0.45  # never below chance - 0.05

    def test_deterministic(self):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, seed=2))
        a = evaluate.sweep_windows(ds, sizes=(60.0, 80.0), k=5)
        b = evaluate.sweep_windows(ds, sizes=(60.0, 80.0), k=5)
        assert a == b


@pytest.mark.parametrize("seed", [-1, 2.5, True, math.nan])
@pytest.mark.parametrize("entry", [evaluate.loso, evaluate.sweep_windows])
def test_bad_seed_refused_before_data_work(cohort16, monkeypatch, entry, seed):
    def no_work(trace):
        raise AssertionError("trace prepared before the seed was checked")

    monkeypatch.setattr(windows, "prepare_trace", no_work)
    monkeypatch.setattr(evaluate, "prepare_trace", no_work)
    with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
        entry(cohort16, seed=seed)


@pytest.mark.parametrize("k", [0, 2.5, True])
@pytest.mark.parametrize("entry", [evaluate.loso, evaluate.sweep_windows])
def test_bad_k_refused_before_data_work(cohort16, monkeypatch, entry, k):
    def no_work(trace):
        raise AssertionError("trace prepared before k was checked")

    monkeypatch.setattr(windows, "prepare_trace", no_work)
    monkeypatch.setattr(evaluate, "prepare_trace", no_work)
    with pytest.raises(ValidationError, match="^k must be "):
        entry(cohort16, k=k)


@pytest.mark.parametrize("entry, kwargs, match", [
    (evaluate.sweep_windows, {"sizes": (60.0, math.nan)}, "^window size must be"),
    (evaluate.sweep_windows, {"sizes": []}, r"^sizes names no window size: \[\]$"),
    (evaluate.sweep_windows, {"model_kind": "xgb"}, "^unknown model kind 'xgb'"),
    (evaluate.loso, {"model_kind": "xgb"}, "^unknown model kind 'xgb'"),
], ids=["sweep-nan-size", "sweep-no-size", "sweep-model", "loso-model"])
def test_bad_arguments_refused_before_data_work(cohort16, monkeypatch, entry,
                                                 kwargs, match):
    def no_work(*args, **kwargs):
        raise AssertionError("data work began before the arguments were checked")

    for module in (windows, evaluate):
        monkeypatch.setattr(module, "prepare_trace", no_work)
        monkeypatch.setattr(module, "build_matrix", no_work)
    with pytest.raises(ValidationError, match=match):
        entry(cohort16, **kwargs)


def test_check_run_order():
    # A bad seed is named first, then a bad k, then the first unknown kind.
    for args, shown in [((0, ["xgb"], -1), "seed must be a whole number >= 0, got -1"),
                        ((0, ["xgb"], 0), "k must be >= 1, got 0"),
                        ((1, ["lda", "xgb", "svm"], 0), "unknown model kind 'xgb'")]:
        with pytest.raises(ValidationError, match=f"^{shown}"):
            evaluate.check_run(*args)
    evaluate.check_run(1, list(evaluate.models.MODEL_KINDS), 0)


@pytest.fixture(scope="module")
def cohort3():
    return io.synth_cohort(io.SynthCohortSpec(n_subjects=3, seed=2))


SPECS = (windows.WindowSpec(60.0, 5.0), windows.WindowSpec(80.0, 10.0))


def recording(fn, log):
    def spy(*args):
        log.append(args)
        return fn(*args)
    return spy


@pytest.mark.parametrize("kinds", [["sgd"], ["lda", "knn", "sgd"]])
def test_loso_reports_prepares_and_builds_once(cohort3, monkeypatch, kinds):
    calls = {"prepare_trace": [], "build_matrix": []}
    for name, log in calls.items():
        monkeypatch.setattr(evaluate, name, recording(getattr(evaluate, name), log))
    reports = evaluate.loso_reports(cohort3, SPECS, kinds, 10, 1)
    assert [args[0].subject_id for args in calls["prepare_trace"]] \
        == [t.subject_id for t in cohort3]
    assert [args[1] for args in calls["build_matrix"]] == list(SPECS)
    # Spec by spec, and within a spec in the order of the kinds.
    assert [(r.config["window_s"], r.config["step_s"], r.config["model"])
            for r in reports] == [(s.size_s, s.step_s, kind)
                                  for s in SPECS for kind in kinds]


@pytest.mark.parametrize("kind", ["lda", "knn", "sgd"])
def test_loso_is_loso_matrix_of_built_matrix(cohort3, kind):
    spec = windows.WindowSpec(80.0, 10.0)
    alone = evaluate.loso_matrix(windows.build_matrix(cohort3, spec), 10, kind, 3,
                                 evaluate.window_echo(spec))
    assert evaluate.loso(cohort3, spec, 10, kind, 3).to_json() == alone.to_json()


@pytest.mark.parametrize("size", [np.int64(80), np.float32(80.0)])
def test_numpy_window_size_report_serialises(cohort3, size):
    doc = json.loads(evaluate.loso(cohort3, windows.WindowSpec(size, 10.0)).to_json())
    assert (doc["config"]["window_s"], doc["config"]["step_s"]) == (80.0, 10.0)


def oracle_exact_u(a, b):
    """Rank-free brute force: U counts pairs (x in A, y in B) with x > y
    (+0.5 for ties); the p-value enumerates every assignment of the pooled
    values to the two groups."""
    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)

    def u_of(sel):
        sel = set(sel)
        A = [pooled[i] for i in sel]
        B = [pooled[i] for i in range(len(pooled)) if i not in sel]
        return sum(1.0 if x > y else 0.5 if x == y else 0.0
                   for x in A for y in B)

    obs_min = min(u_of(range(n1)), n1 * n2 - u_of(range(n1)))
    count = total = 0
    for sel in combinations(range(n1 + n2), n1):
        u = u_of(sel)
        if min(u, n1 * n2 - u) <= obs_min + 1e-9:
            count += 1
        total += 1
    return obs_min, count / total


class TestMannWhitney:
    def test_textbook_exact_case(self):
        r = evaluate.mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert r.u == 0 and r.method == "exact"
        assert r.p_two_tailed == pytest.approx(0.1, rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        cases = [(rng.integers(0, 6, rng.integers(2, 6)).tolist(),
                  rng.integers(0, 6, rng.integers(2, 6)).tolist()) for _ in range(10)]
        # The largest combined n that is still enumerated exactly.
        cases.append((rng.integers(0, 6, 7).tolist(), rng.integers(0, 6, 9).tolist()))
        for a, b in cases:
            r = evaluate.mann_whitney_u(a, b)
            assert r.method == "exact"
            u, p = oracle_exact_u(a, b)
            assert r.u == pytest.approx(u, abs=1e-9)
            assert r.p_two_tailed == pytest.approx(p, rel=1e-12)

    def test_tied_identical_samples(self):
        r = evaluate.mann_whitney_u([1, 2], [1, 2])
        assert r.u == 2.0  # n1*n2/2 under midranks
        # All tied above the exact cap: the variance is 0 and p is 1.
        r = evaluate.mann_whitney_u([1.0] * 9, [1.0] * 8)
        assert (r.u, r.p_two_tailed, r.method) == (36.0, 1.0, "normal")

    def test_normal_mode_strong_separation(self):
        rng = np.random.default_rng(1)
        # One past the exact cap (combined n = 17), then a large sample.
        for n1, n2 in ((8, 9), (48, 64)):
            a = rng.uniform(5, 25, n1)
            b = rng.uniform(55, 90, n2)
            r = evaluate.mann_whitney_u(a, b)
            assert r.method == "normal"
            assert r.p_two_tailed < (1e-3 if n1 + n2 == 17 else 1e-5)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=30),
           st.lists(st.integers(0, 8), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_u_symmetry(self, a, b):
        ra = evaluate.mann_whitney_u(a, b)
        rb = evaluate.mann_whitney_u(b, a)
        # min-U is symmetric; the raw U1 values complement to n1*n2
        assert ra.u == pytest.approx(rb.u, abs=1e-9)
        assert 0 <= ra.u <= len(a) * len(b)

    def test_empty_sample(self):
        with pytest.raises(ValidationError):
            evaluate.mann_whitney_u([], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        # A nan rank made the exact p-value 0: no assignment compared <= nan.
        with pytest.raises(ValidationError, match="finite"):
            evaluate.mann_whitney_u([1.0, bad], [2.0, 3.0])

    # The cast to float raised a bare ValueError.
    @pytest.mark.parametrize("a,problem", [
        (["a"], "U test samples must be real, got dtype <U1"),
        ([[1.0, 2.0]], r"U test samples must be 1-D, got shape \(1, 2\)")],
        ids=["str", "2-D"])
    def test_not_1d_real_sample_refused(self, a, problem):
        with pytest.raises(ValidationError, match=f"^{problem}$"):
            evaluate.mann_whitney_u(a, [1.0])


# Few distinct values, so most draws hold long runs of ties.
TIED_VALUES = [-2.5, -0.0, 0.0, 1.0, 1.5, 7.0, 1e300]
tied_samples = st.lists(st.sampled_from(TIED_VALUES), min_size=1, max_size=60)


@given(st.one_of(tied_samples, st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=1, max_size=60)))
@settings(max_examples=300, deadline=None)
def test_midranks_equal_scipy_rankdata(values):
    from scipy.stats import rankdata
    x = np.array(values, dtype=float)
    ranks, counts = evaluate.midranks(x)
    np.testing.assert_array_equal(ranks, rankdata(x))
    np.testing.assert_array_equal(counts, np.unique(x, return_counts=True)[1])


@st.composite
def normal_branch_samples(draw):
    """Two samples of combined n above the exact cap: heavily tied, or with
    no tie at all."""
    n = draw(st.integers(evaluate.EXACT_U_CAP + 1, 80))
    n1 = draw(st.integers(1, n - 1))
    values = draw(st.one_of(
        st.lists(st.sampled_from(TIED_VALUES), min_size=n, max_size=n),
        # -0.0 + 0.0 is 0.0: -0.0 and 0.0 tie, so at most one of them is drawn.
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n, unique_by=lambda v: v + 0.0)))
    return values[:n1], values[n1:]


@given(normal_branch_samples())
@example(([1.0] * 9, [1.0] * 8))  # all tied: variance 0
@settings(max_examples=300, deadline=None)
def test_normal_branch_matches_scipy(samples):
    from scipy.stats import mannwhitneyu
    a, b = samples
    r = evaluate.mann_whitney_u(a, b)
    want = mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
    n1, n2 = len(a), len(b)
    assert r.method == "normal"
    assert r.u == min(want.statistic, n1 * n2 - want.statistic)
    assert r.p_two_tailed == pytest.approx(want.pvalue, rel=1e-12, abs=0)


class TestSudsReport:
    def test_planted_cohort(self, cohort16):
        rep = evaluate.suds_report(cohort16)
        assert rep.stressful["median"] > rep.relaxing["median"]
        assert rep.utest.p_two_tailed < 1e-5

    def test_identical_ratings_p_near_one(self):
        spans = (io.ConditionSpan(0, 100, io.Condition.RELAXING),
                 io.ConditionSpan(100, 200, io.Condition.STRESSFUL))
        suds = tuple(io.SudsRating(t, 50) for t in (10, 50, 110, 150))
        traces = tuple(
            io.PpgTrace(f"s{i}", 100.0, np.zeros(20000), spans, suds)
            for i in range(2))
        rep = evaluate.suds_report(io.Dataset(traces))
        assert rep.utest.p_two_tailed > 0.9

    def test_rating_outside_spans(self):
        spans = (io.ConditionSpan(0, 100, io.Condition.RELAXING),
                 io.ConditionSpan(100, 180, io.Condition.STRESSFUL))
        suds = (io.SudsRating(10, 10), io.SudsRating(150, 80),
                io.SudsRating(190.0, 50))
        tr = io.PpgTrace("s9", 100.0, np.zeros(20000), spans, suds)
        with pytest.raises(DataError, match=r"s9.*190"):
            evaluate.suds_report(io.Dataset((tr,)))
