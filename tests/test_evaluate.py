import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppgstress import evaluate, io
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
        r = evaluate.mann_whitney_u([1, 2, 3], [4, 5, 6], "exact")
        assert r.u == 0
        assert r.p_two_tailed == pytest.approx(0.1, rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.integers(0, 6, rng.integers(2, 6)).tolist()
            b = rng.integers(0, 6, rng.integers(2, 6)).tolist()
            r = evaluate.mann_whitney_u(a, b, "exact")
            u, p = oracle_exact_u(a, b)
            assert r.u == pytest.approx(u, abs=1e-9)
            assert r.p_two_tailed == pytest.approx(p, rel=1e-12)

    def test_tied_identical_samples(self):
        r = evaluate.mann_whitney_u([1, 2], [1, 2], "exact")
        assert r.u == 2.0  # n1*n2/2 under midranks

    def test_exact_cap(self):
        with pytest.raises(ValidationError, match="capped"):
            evaluate.mann_whitney_u(list(range(10)), list(range(10)), "exact")

    def test_normal_mode_strong_separation(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(5, 25, 48)
        b = rng.uniform(55, 90, 64)
        r = evaluate.mann_whitney_u(a, b, "normal")
        assert r.p_two_tailed < 1e-5
        assert r.method == "normal"

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=30),
           st.lists(st.integers(0, 8), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_u_symmetry(self, a, b):
        ra = evaluate.mann_whitney_u(a, b, "normal")
        rb = evaluate.mann_whitney_u(b, a, "normal")
        # min-U is symmetric; the raw U1 values complement to n1*n2
        assert ra.u == pytest.approx(rb.u, abs=1e-9)
        assert 0 <= ra.u <= len(a) * len(b)

    def test_empty_sample(self):
        with pytest.raises(ValidationError):
            evaluate.mann_whitney_u([], [1])


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
