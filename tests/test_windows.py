import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bit_equal
from ppgstress import io, windows
from ppgstress.errors import DataError, ValidationError


def make_trace(n_s=840, fs=100.0):
    spans = (io.ConditionSpan(0, n_s / 2, io.Condition.RELAXING),
             io.ConditionSpan(n_s / 2, n_s, io.Condition.STRESSFUL))
    return io.PpgTrace("s1", fs, np.zeros(int(n_s * fs)), spans)


class TestWindowSpec:
    def test_spectral_floor(self):
        with pytest.raises(ValidationError, match="60 s"):
            windows.WindowSpec(50.0, 5.0)

    def test_step_bounds(self):
        with pytest.raises(ValidationError):
            windows.WindowSpec(80.0, 0.0)
        with pytest.raises(ValidationError):
            windows.WindowSpec(80.0, 100.0)

    @pytest.mark.parametrize("size,step,shown", [
        (float("nan"), 5.0, "size must be finite and >= 60 s, got nan"),
        (float("inf"), 5.0, "size must be finite and >= 60 s, got inf"),
        (80.0, float("nan"), "step must be in .*, got nan"),
        (80.0, float("inf"), "step must be in .*, got inf")],
        ids=["size-nan", "size-inf", "step-nan", "step-inf"])
    def test_non_finite_refused(self, size, step, shown):
        with pytest.raises(ValidationError, match=shown):
            windows.WindowSpec(size, step)

    # A whole number too large for a float passed the real-number check, and
    # the float() that stores it raised a bare OverflowError.
    @pytest.mark.parametrize("size,step,shown", [
        (10 ** 400, 5.0, "window size must be finite and >= 60 s, got inf"),
        (-10 ** 400, 5.0, "window size must be finite and >= 60 s, got -inf"),
        (80.0, 10 ** 400, r"step must be in \(0, size\], got inf")],
        ids=["size-huge", "size-minus-huge", "step-huge"])
    def test_too_large_for_a_float_refused(self, size, step, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            windows.WindowSpec(size, step)

    @pytest.mark.parametrize("size,step", [(np.int64(80), 5), (np.float32(80.0), 5.0),
                                           (80, np.float32(5.0))])
    def test_stored_as_float(self, size, step):
        spec = windows.WindowSpec(size, step)
        assert (type(spec.size_s), type(spec.step_s)) == (float, float)
        assert (spec.size_s, spec.step_s) == (80.0, 5.0)

    @pytest.mark.parametrize("size,step,shown", [
        ("80", 5.0, "window size must be a real number, got '80'"),
        (True, 5.0, "window size must be a real number, got True"),
        (80.0, True, "step must be a real number, got True"),
        (80.0, None, "step must be a real number, got None")],
        ids=["size-str", "size-bool", "step-bool", "step-none"])
    def test_not_a_real_number_refused(self, size, step, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            windows.WindowSpec(size, step)


class TestSegment:
    @pytest.mark.parametrize("size,expected", [(80.0, 69), (120.0, 61)])
    def test_window_count_formula(self, size, expected):
        trace = make_trace(840)
        spec = windows.WindowSpec(size, 5.0)
        wins = windows.segment(trace, spec)
        per_span = [w for w in wins if w.label == 0]
        assert len(per_span) == expected
        assert len(wins) == 2 * expected

    def test_short_span_yields_nothing(self):
        spans = (io.ConditionSpan(0, 70, io.Condition.RELAXING),)
        trace = io.PpgTrace("s1", 100.0, np.zeros(7000), spans)
        assert len(windows.segment(trace, windows.WindowSpec(80.0, 5.0))) == 0

    def test_starts_do_not_drift(self):
        spans = (io.ConditionSpan(0.0, 1500.0, io.Condition.RELAXING),
                 io.ConditionSpan(1500.0, 3000.0, io.Condition.STRESSFUL))
        trace = io.PpgTrace("s1", 25.0, np.zeros(3000 * 25), spans)
        wins = windows.segment(trace, windows.WindowSpec(60.0, 0.1))
        for span in spans:
            starts = [w.start_s for w in wins if w.label == span.condition.value]
            assert len(starts) == int((1500.0 - 60.0) / 0.1) + 1
            assert starts == [span.start_s + i * 0.1 for i in range(len(starts))]

    def test_never_straddles_boundary(self):
        trace = make_trace(840)
        for w in windows.segment(trace, windows.WindowSpec(80.0, 5.0)):
            span = trace.annotations[w.label]
            assert w.start_s >= span.start_s - 1e-9
            assert w.end_s <= span.end_s + 1e-9

    # A spec that is not a WindowSpec raised a bare AttributeError on `.size_s`.
    @pytest.mark.parametrize("args,shown", [
        ((make_trace(840), "x"), "PpgTrace and str"),
        (("x", windows.WindowSpec()), "str and WindowSpec")], ids=["spec", "trace"])
    def test_wrong_argument_types_refused(self, args, shown):
        with pytest.raises(ValidationError, match=rf"^segment takes a PpgTrace and a "
                           rf"WindowSpec, got {shown}$"):
            windows.segment(*args)


def loop_segment(trace, spec):
    """The per-window loop `segment` replaced, as its oracle: start, end and
    label arrays, each start computed afresh from its index."""
    starts, ends, labels = [], [], []
    for span in trace.annotations:
        i = 0
        while ((start := span.start_s + i * spec.step_s) + spec.size_s
               <= span.end_s + 1e-9):
            starts.append(start)
            ends.append(start + spec.size_s)
            labels.append(span.condition.value)
            i += 1
    return (np.array(starts, dtype=float), np.array(ends, dtype=float),
            np.array(labels, dtype=int))


@st.composite
def traces_and_specs(draw):
    """A trace of 0-3 spans and a window spec. A span's length is random,
    shorter than the window, or the window plus j steps, landing exactly on
    the loop's last end or within a few 1e-9 of it on either side."""
    size = draw(st.floats(60.0, 300.0))
    step = draw(st.sampled_from([5.0, 0.1 * size, size]) | st.floats(0.5, size))
    spans, t = [], draw(st.floats(0.0, 100.0))
    for _ in range(draw(st.integers(0, 3))):
        start = t + draw(st.floats(0.0, 50.0))
        kind = draw(st.sampled_from(["random", "short", "exact", "tolerance"]))
        if kind == "random":
            end = start + draw(st.floats(1.0, 1500.0))
        elif kind == "short":
            end = start + draw(st.floats(1e-3, size, exclude_max=True))
        else:
            end = (start + draw(st.integers(0, 20)) * step) + size
            if kind == "tolerance":
                end += draw(st.sampled_from([-2e-9, -1e-9, -5e-10, 5e-10, 2e-9])
                            | st.floats(-3e-9, 3e-9))
        condition = draw(st.sampled_from(list(io.Condition)))
        spans.append(io.ConditionSpan(start, end, condition))
        t = end
    fs = 25.0
    trace = io.PpgTrace("s1", fs, np.zeros(math.ceil(t * fs) + 1), tuple(spans))
    return trace, windows.WindowSpec(size, step)


class TestSegmentOracle:
    @given(traces_and_specs())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_loop(self, case):
        trace, spec = case
        wins = windows.segment(trace, spec)
        starts, ends, labels = loop_segment(trace, spec)
        assert len(wins) == starts.size
        assert_bit_equal(wins.start_s, starts)
        assert_bit_equal(wins.end_s, ends)
        assert_bit_equal(wins.label, labels)

    @pytest.mark.parametrize("end", [260.0, 260.0 + 1e-9, 260.0 - 1e-9,
                                     260.0 - 2e-9, 259.0, None],
                             ids=["on-end", "past-end", "in-tolerance",
                                  "past-tolerance", "step-short", "no-spans"])
    def test_edge_spans_match_loop(self, end):
        spans = (() if end is None
                 else (io.ConditionSpan(100.0, end, io.Condition.STRESSFUL),))
        trace = io.PpgTrace("s1", 25.0, np.zeros(300 * 25), spans)
        spec = windows.WindowSpec(80.0, 5.0)
        starts, ends, labels = loop_segment(trace, spec)
        wins = windows.segment(trace, spec)
        assert_bit_equal(wins.start_s, starts)
        assert_bit_equal(wins.end_s, ends)
        assert_bit_equal(wins.label, labels)


class TestBuildMatrix:
    def test_cohort_matrix_shape(self, cohort16, matrix16):
        assert matrix16.n_rows <= 16 * 138
        assert len(matrix16.columns) == 27
        for tr in cohort16:
            labels = {matrix16.labels[i] for i in range(matrix16.n_rows)
                      if matrix16.subjects[i] == tr.subject_id}
            assert labels == {0, 1}

    def test_window_counts_match_formula(self, matrix16):
        for sid in set(matrix16.subjects):
            mask = matrix16.rows_for(sid)
            # 69 windows per 420 s span minus any drops
            assert np.sum(matrix16.labels[mask] == 0) <= 69
            assert np.sum(matrix16.labels[mask] == 1) <= 69

    def test_flat_signal_surfaces_subject(self):
        ds = io.Dataset((make_trace(840),))
        with pytest.raises(DataError, match="s1"):
            windows.build_matrix(ds, windows.WindowSpec(80.0, 5.0))

    def test_trace_without_spans_is_refused(self, cohort16):
        # No windows at all reach the class check, not a numpy error.
        trace = cohort16.traces[0]
        ds = io.Dataset((io.PpgTrace(trace.subject_id, trace.fs, trace.samples),))
        with pytest.raises(DataError, match=f"^subject {trace.subject_id} has no "
                                            "usable windows in both classes$"):
            windows.build_matrix(ds, windows.WindowSpec(80.0, 5.0))

    @pytest.mark.parametrize("n, shown", [
        (300, "need at least 5 s of signal, got 3.0 s"),
        (20, "input too short for zero-phase filtering")], ids=["3s", "20-samples"])
    def test_short_trace_error_names_subject(self, n, shown):
        trace = io.PpgTrace("s7", 100.0, np.zeros(n))
        with pytest.raises(DataError, match=f"^subject s7: {re.escape(shown)}"):
            windows.prepare_trace(trace)

    def test_deterministic(self):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, seed=11))
        spec = windows.WindowSpec(80.0, 5.0)
        a = windows.build_matrix(ds, spec)
        b = windows.build_matrix(ds, spec)
        assert np.array_equal(a.X, b.X)
        assert a.subjects == b.subjects


class TestSubjectCodes:
    def matrix(self):
        subjects = ("B", "A", "B", "C", "A")
        return windows.FeatureMatrix(subjects, np.array([0, 1, 1, 0, 0]),
                                     np.arange(5.0), np.arange(10.0).reshape(5, 2),
                                     ("f0", "f1"))

    def test_codes_in_first_appearance_order(self):
        m = self.matrix()
        assert m.subject_ids == ("B", "A", "C")
        np.testing.assert_array_equal(m.codes, [0, 1, 0, 2, 1])
        np.testing.assert_array_equal(m.rows_for("A"), [False, True, False, False, True])
        np.testing.assert_array_equal(m.rows_for("Z"), np.zeros(5, dtype=bool))

    def test_take_recodes_subset(self):
        sub = self.matrix().take(np.array([False, True, False, True, True]))
        assert sub.subjects == ("A", "C", "A")
        assert sub.subject_ids == ("A", "C")
        np.testing.assert_array_equal(sub.codes, [0, 1, 0])
        np.testing.assert_array_equal(sub.X, [[2.0, 3.0], [6.0, 7.0], [8.0, 9.0]])
        np.testing.assert_array_equal(sub.labels, [1, 0, 0])


class TestFiniteValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named(self, value):
        X = np.arange(10.0).reshape(5, 2)
        X[3, 1] = value
        with pytest.raises(ValidationError, match=(
                rf"^subject C: non-finite f1 {value} in the window starting at 35 s$")):
            windows.FeatureMatrix(("B", "A", "B", "C", "A"), np.array([0, 1, 1, 0, 0]),
                                  np.arange(5.0) * 5 + 20, X, ("f0", "f1"))

    def test_first_non_finite_row_named(self):
        X = np.full((3, 2), np.nan)
        X[0] = 1.0
        with pytest.raises(ValidationError, match="^subject b: non-finite f0 nan .* at 1 s$"):
            windows.FeatureMatrix(("a", "b", "c"), np.array([0, 1, 1]),
                                  np.arange(3.0), X, ("f0", "f1"))


class TestMatrixFields:
    def matrix(self, **fields):
        valid = dict(subjects=("a", "b"), labels=np.array([0, 1]), starts=np.zeros(2),
                     X=np.zeros((2, 3)), columns=("f0", "f1", "f2"))
        return windows.FeatureMatrix(**{**valid, **fields})

    # A 1-D X raised a bare IndexError from `X.shape[1]`.
    @pytest.mark.parametrize("fields,problem", [
        ({"X": np.zeros(3)}, r"feature matrix X must be 2-D, got shape \(3,\)"),
        ({"X": [["a"] * 3] * 2}, "feature matrix X must be real, got dtype <U1"),
        ({"labels": np.array([True, False])},
         "feature matrix labels must be real, got dtype bool"),
        ({"starts": np.zeros((2, 1))},
         r"feature matrix starts must be 1-D, got shape \(2, 1\)"),
        ({"subjects": "ab"}, "feature matrix subjects and columns must be tuples"),
        ({"columns": None}, "feature matrix subjects and columns must be tuples")],
        ids=["1-D X", "str X", "bool labels", "2-D starts", "str subjects", "no columns"])
    def test_bad_field_refused(self, fields, problem):
        with pytest.raises(ValidationError, match=f"^{problem}$"):
            self.matrix(**fields)

    def test_lists_stored_as_arrays(self):
        m = self.matrix(labels=[0, 1], starts=[0.0, 5.0], X=[[1.0] * 3] * 2)
        assert all(isinstance(a, np.ndarray) for a in (m.labels, m.starts, m.X))


class TestAnovaF:
    def mk(self, cols, labels):
        X = np.array(cols, dtype=float).T
        n = X.shape[0]
        names = tuple(f"f{i}" for i in range(X.shape[1]))
        return windows.FeatureMatrix(("s",) * n, np.array(labels),
                                     np.zeros(n), X, names)

    def test_hand_computed_value(self):
        m = self.mk([[1, 2, 3, 4, 5, 6]], [0, 0, 0, 1, 1, 1])
        rep = windows.anova_f(m)
        assert rep.scores["f0"] == pytest.approx(13.5, rel=1e-12)

    def test_equal_means_near_zero(self):
        m = self.mk([[1, 2, 3, 1, 2, 3]], [0, 0, 0, 1, 1, 1])
        assert windows.anova_f(m).scores["f0"] < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=40)
        labels = np.r_[np.zeros(20), np.ones(20)].astype(int)
        f1 = windows.anova_f(self.mk([col], labels)).scores["f0"]
        f2 = windows.anova_f(self.mk([-2.5 * col + 7], labels)).scores["f0"]
        assert f2 == pytest.approx(f1, rel=1e-9)

    def test_zero_msw_sentinel_ranked_first(self):
        m = self.mk([[1, 1, 1, 2, 2, 2], [1, 2, 3, 4, 5, 6]],
                    [0, 0, 0, 1, 1, 1])
        rep = windows.anova_f(m)
        assert rep.scores["f0"] == np.inf
        assert rep.ranked[0] == "f0"

    def test_constant_column_scores_zero(self):
        # np.std of seven 0.1s is 1.5e-17, not 0; ones would give MSW = 0.
        m = self.mk([[0.1] * 7, [1, 2, 3, 4, 5, 6, 7], [1] * 7],
                    [0, 0, 0, 1, 1, 1, 1])
        rep = windows.anova_f(m)
        assert rep.scores["f0"] == rep.scores["f2"] == 0.0
        assert rep.scores["f1"] == pytest.approx(15.0, rel=1e-12)
        assert rep.ranked == ("f1", "f0", "f2")

    def test_tie_break_by_catalog_order(self):
        col = [1, 2, 3, 4, 5, 6]
        m = self.mk([col, col], [0, 0, 0, 1, 1, 1])
        assert windows.anova_f(m).ranked == ("f0", "f1")

    @pytest.mark.parametrize("seed", [4, 6, 7, 9])
    def test_equal_columns_tie_exactly_in_wide_matrix(self, seed):
        # With OpenBLAS, these seeds give a cross-product GEMM whose diagonal
        # entries for the two equal columns differ in the last bit.
        X = np.random.default_rng(seed).normal(size=(150, 14))
        X[:, 9] = X[:, 2]
        rep = windows.anova_f(self.mk(X.T, np.arange(150) % 2))
        assert rep.scores["f2"] == rep.scores["f9"]
        assert rep.ranked.index("f2") + 1 == rep.ranked.index("f9")

    def test_single_class_error(self):
        m = self.mk([[1, 2, 3, 4]], [0, 0, 0, 0])
        with pytest.raises(DataError):
            windows.anova_f(m)


class TestSelectTopK:
    def test_clipping(self, matrix16):
        rep = windows.anova_f(matrix16)
        sel = windows.select_top_k(matrix16, rep, 35)
        assert len(sel.columns) == 27

    def test_k1(self, matrix16):
        rep = windows.anova_f(matrix16)
        sel = windows.select_top_k(matrix16, rep, 1)
        assert sel.columns == (rep.ranked[0],)

    def test_k_all_is_column_permutation(self, matrix16):
        rep = windows.anova_f(matrix16)
        sel = windows.select_top_k(matrix16, rep, len(matrix16.columns))
        assert set(sel.columns) == set(matrix16.columns)

    def test_top5_overlap_with_reported_best(self, matrix16):
        # data-dependent sanity: the synthetic stress cohort should rank
        # some of the reported best discriminators in its upper half
        rep = windows.anova_f(matrix16)
        assert set(rep.ranked[:15]) & {"MCVNN", "ShanEn", "pNN20", "CVNN",
                                       "IQRNN"}


class TestStandardize:
    def test_train_stats(self, matrix16):
        _, tr, _ = windows.standardize(matrix16)
        np.testing.assert_allclose(tr.X.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(tr.X.std(axis=0, ddof=1), 1, atol=1e-9)

    def test_apply_equals_train_when_same_rows(self, matrix16):
        _, tr, ap = windows.standardize(matrix16, matrix16)
        np.testing.assert_allclose(tr.X, ap.X)

    def test_constant_column_dropped(self):
        X = np.c_[np.ones(6), np.arange(6.0)]
        m = windows.FeatureMatrix(("s",) * 6, np.array([0, 0, 0, 1, 1, 1]),
                                  np.zeros(6), X, ("const", "var"))
        dropped, tr, _ = windows.standardize(m)
        assert dropped == ("const",)
        assert tr.columns == ("var",)

    def test_rounded_constant_column_dropped(self):
        X = np.c_[np.full(7, 0.1), np.arange(7.0)]
        m = windows.FeatureMatrix(("s",) * 7, np.array([0, 0, 0, 1, 1, 1, 1]),
                                  np.zeros(7), X, ("const", "var"))
        dropped, tr, _ = windows.standardize(m)
        assert dropped == ("const",)
        assert tr.columns == ("var",)

    def test_all_constant_error(self):
        X = np.ones((6, 2))
        m = windows.FeatureMatrix(("s",) * 6, np.array([0, 0, 0, 1, 1, 1]),
                                  np.zeros(6), X, ("a", "b"))
        with pytest.raises(DataError):
            windows.standardize(m)


class TestCsvRoundTrip:
    def test_round_trip(self, matrix16, tmp_path):
        path = tmp_path / "features.csv"
        matrix16.to_csv(path)
        header, *lines = path.read_text().splitlines()
        assert header.startswith("subject,label,start_s,MeanNN,")
        rows = [line.split(",") for line in lines]
        assert tuple(header.split(",")[3:]) == matrix16.columns
        np.testing.assert_array_equal(
            np.array([[float(v) for v in r[3:]] for r in rows]), matrix16.X)
        np.testing.assert_array_equal([float(r[2]) for r in rows], matrix16.starts)
        np.testing.assert_array_equal([int(r[1]) for r in rows], matrix16.labels)
        assert tuple(r[0] for r in rows) == matrix16.subjects
