import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_synth
from conftest import assert_bit_equal
from ppgstress import io
from ppgstress.errors import DataError, ValidationError


class TestTypes:
    def test_fs_floor(self):
        with pytest.raises(ValidationError, match="25 Hz"):
            io.PpgTrace("s1", 10.0, np.zeros(100))

    @pytest.mark.parametrize("fs", [math.nan, math.inf, "100", None, True])
    def test_fs_not_a_finite_number(self, fs):
        with pytest.raises(ValidationError, match=r"subject s1: fs must be a finite "
                           r"number >= 25 Hz, got "):
            io.PpgTrace("s1", fs, np.zeros(100))

    def test_fs_stored_as_float(self):
        assert type(io.PpgTrace("s1", np.int64(100), np.zeros(100)).fs) is float

    # A whole number too large for a float passed the range check, and the
    # float() that stores it raised a bare OverflowError.
    @pytest.mark.parametrize("fs", [10 ** 400, -10 ** 400], ids=["huge", "-huge"])
    def test_fs_too_large_for_a_float_refused(self, fs):
        with pytest.raises(ValidationError, match=r"^subject s1: fs must be a finite "
                           r"number >= 25 Hz, got "):
            io.PpgTrace("s1", fs, np.zeros(100))

    def test_nonfinite_samples(self):
        with pytest.raises(ValidationError, match="non-finite"):
            io.PpgTrace("s1", 100.0, np.array([1.0, np.nan]))

    # Samples of shape (n, 2) or (n, 1) were accepted, and build_matrix then
    # failed on a broadcast and save_dataset on a list.
    @pytest.mark.parametrize("shape", [(100, 2), (100, 1)])
    def test_samples_not_1d_refused(self, shape):
        with pytest.raises(ValidationError, match=rf"^subject s1: PPG samples must be "
                           rf"1-D, got shape {re.escape(str(shape))}$"):
            io.PpgTrace("s1", 100.0, np.zeros(shape))

    def test_span_ordering(self):
        spans = (io.ConditionSpan(0, 10, io.Condition.RELAXING),
                 io.ConditionSpan(5, 15, io.Condition.STRESSFUL))
        with pytest.raises(ValidationError, match="overlapping"):
            io.PpgTrace("s1", 100.0, np.zeros(2000), spans)

    def test_span_beyond_duration(self):
        spans = (io.ConditionSpan(0, 100, io.Condition.RELAXING),)
        with pytest.raises(ValidationError):
            io.PpgTrace("s1", 100.0, np.zeros(200), spans)

    def test_suds_range(self):
        with pytest.raises(ValidationError, match=r"SUDs out of \[0,100\]"):
            io.SudsRating(0.0, 120)

    # A bool or a fraction was accepted and saved, and the loader then
    # refused the file; a string failed the range check with a TypeError.
    @pytest.mark.parametrize("value,problem", [
        (50.5, "SUDs must be a whole number, got 50.5"),
        (math.nan, "SUDs must be a whole number, got nan"),
        (True, "SUDs must be a real number, got True"),
        ("50", "SUDs must be a real number, got '50'"),
    ])
    def test_suds_not_whole_refused(self, value, problem):
        with pytest.raises(ValidationError, match=f"^{re.escape(problem)}$"):
            io.SudsRating(120.0, value)

    # A nan time would be saved as `nan,50`, a row the loader refuses.
    @pytest.mark.parametrize("time_s,problem", [
        (math.nan, "SUDs time must be finite, got nan"),
        (-math.inf, "SUDs time must be finite, got -inf"),
        ("x", "SUDs time must be a real number, got 'x'"),
    ], ids=["nan", "-inf", "str"])
    def test_suds_time_not_a_finite_real_refused(self, time_s, problem):
        with pytest.raises(ValidationError, match=f"^{re.escape(problem)}$"):
            io.SudsRating(time_s, 50)

    # save_dataset writes the condition's `.name`; a string time would fail
    # the end > start check with a bare TypeError, and PpgTrace refused an
    # infinite time as "span ends at infs" or "unordered spans at -infs".
    @pytest.mark.parametrize("args,problem", [
        ((0, 5, "relaxing"), "span condition must be Condition.RELAXING or "
                             "Condition.STRESSFUL, got 'relaxing'"),
        (("a", 5, io.Condition.RELAXING), "span start must be a real number, got 'a'"),
        ((0, None, io.Condition.STRESSFUL), "span end must be a real number, got None"),
        ((-math.inf, 0, io.Condition.RELAXING), "span start must be finite, got -inf"),
        ((math.nan, 5, io.Condition.RELAXING), "span start must be finite, got nan"),
        ((0, math.inf, io.Condition.STRESSFUL), "span end must be finite, got inf"),
        ((0, 10 ** 400, io.Condition.STRESSFUL), "span end must be finite, got inf"),
    ], ids=["condition", "start", "end", "start-inf", "start-nan", "end-inf", "end-huge"])
    def test_span_fields_checked(self, args, problem):
        with pytest.raises(ValidationError, match=f"^{re.escape(problem)}$"):
            io.ConditionSpan(*args)

    # save_dataset reads each item's fields.
    @pytest.mark.parametrize("field,problem", [
        ("annotations", "subject s1: annotations must be ConditionSpans, got 1"),
        ("suds", "subject s1: SUDs ratings must be SudsRatings, got 1"),
    ], ids=["annotations", "suds"])
    def test_trace_items_checked(self, field, problem):
        with pytest.raises(ValidationError, match=f"^{re.escape(problem)}$"):
            io.PpgTrace("s1", 100.0, np.zeros(100), **{field: (1,)})

    # A cast to float would drop the imaginary parts with a ComplexWarning.
    def test_complex_samples_refused(self):
        with pytest.raises(ValidationError, match=r"^subject s1: PPG samples must be "
                           r"real, got dtype complex128$"):
            io.PpgTrace("s1", 100.0, np.zeros(100, dtype=complex))

    # A cast to float raised a bare ValueError for strings, and read a bool
    # as 0 or 1.
    @pytest.mark.parametrize("samples,dtype", [
        (["a"], "<U1"), ([None, 1.0], "object"), ([10 ** 400], "object"),
        ([True, False], "bool")], ids=["str", "None", "huge", "bool"])
    def test_samples_not_real_numbers_refused(self, samples, dtype):
        with pytest.raises(ValidationError, match=rf"^subject S: PPG samples must be "
                           rf"real, got dtype {dtype}$"):
            io.PpgTrace("S", 100.0, samples)

    def test_whole_suds_stored_as_int(self):
        for value in (50.0, np.int64(50), np.float64(50.0)):
            assert type(io.SudsRating(120.0, value).value) is int

    @pytest.mark.parametrize("sid", ["", "S,01", "S\r01", "S\n01", "../x", "a/b",
                                     "a\\b", None, 7])
    def test_bad_subject_id_named(self, sid):
        # A comma adds a field to the feature CSV; a slash moves the saved files.
        with pytest.raises(ValidationError) as e:
            io.PpgTrace(sid, 100.0, np.zeros(100))
        assert str(e.value).startswith(f"subject id {sid!r} must be non-empty")

    def test_dataset_of_non_traces_refused(self):
        # The id check would fail with an AttributeError on `.subject_id`.
        with pytest.raises(ValidationError,
                           match=r"^dataset traces must be PpgTraces, got 1$"):
            io.Dataset((1,))

    def test_duplicate_subject_ids(self):
        tr = io.PpgTrace("s1", 100.0, np.zeros(100))
        with pytest.raises(ValidationError, match="duplicate"):
            io.Dataset((tr, tr))


class TestSynthPpg:
    def test_steady_plan_peak_spacing(self):
        tr = io.synth_ppg([1000.0] * 120, 100.0)
        assert tr.duration_s == pytest.approx(120.3, abs=0.02)
        x = tr.samples
        # local maxima of the clean signal sit 1.00 s apart
        peaks = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
                               & (x[1:-1] > 0.5)) + 1
        assert len(peaks) == 120
        np.testing.assert_allclose(np.diff(peaks) / 100.0, 1.0, atol=0.011)

    def test_deterministic_with_noise(self):
        a = io.synth_ppg([1000.0] * 120, 100.0, 0.05, seed=9)
        b = io.synth_ppg([1000.0] * 120, 100.0, 0.05, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_alternating_plan_gaps(self):
        plan = [985.0, 1015.0] * 30
        tr = io.synth_ppg(plan, 100.0)
        x = tr.samples
        beat_times = np.cumsum(plan) / 1000.0
        argmaxes = []
        for tb in beat_times:
            i0, i1 = int((tb - 0.2) * 100), int((tb + 0.2) * 100)
            argmaxes.append((i0 + np.argmax(x[i0:i1])) / 100.0)
        gaps = np.diff(argmaxes)
        np.testing.assert_allclose(gaps, np.array(plan[1:]) / 1000.0, atol=0.0101)

    def test_empty_plan(self):
        with pytest.raises(DataError):
            io.synth_ppg([], 100.0)

    def test_out_of_range_rr(self):
        with pytest.raises(ValidationError):
            io.synth_ppg([100.0] * 10, 100.0)

    # The 100 intervals were flattened and rendered as one trace.
    @pytest.mark.parametrize("plan,problem", [
        (np.full((2, 50), 800.0), r"rr_plan must be 1-D, got shape \(2, 50\)"),
        (["800"] * 10, "rr_plan must be real, got dtype <U3")], ids=["2-D", "str"])
    def test_plan_not_1d_real_refused(self, plan, problem):
        with pytest.raises(ValidationError, match=f"^{problem}$"):
            io.synth_ppg(plan, 100.0)

    @pytest.mark.parametrize("at", [0, 5, 9], ids=["first", "middle", "last"])
    def test_nan_rr_refused(self, at):
        plan = [800.0] * 10
        plan[at] = math.nan
        with pytest.raises(ValidationError,
                           match=r"^rr_plan values must lie in \[300, 2000\] ms$"):
            io.synth_ppg(plan, 100.0)

    # numpy raised ValueError for -1 and TypeError for 2.5; True passed.
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValidationError, match="^seed must be a whole number >= 0"):
            io.synth_ppg([800.0] * 10, 100.0, noise_sigma=0.1, seed=seed)

    # A negative or nan sigma gave a noiseless trace; inf, non-finite samples.
    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_bad_noise_sigma_refused(self, value):
        with pytest.raises(ValidationError, match="^noise_sigma must be >= 0 and finite$"):
            io.synth_ppg([800.0] * 10, 100.0, noise_sigma=value)

    # True was a sigma of 1, "0.1" raised a bare TypeError and 10 ** 400 a bare
    # OverflowError.
    @pytest.mark.parametrize("value,shown", [
        (True, "noise_sigma must be a real number, got True"),
        ("0.1", "noise_sigma must be a real number, got '0.1'"),
        (None, "noise_sigma must be a real number, got None"),
        (10 ** 400, "noise_sigma must be >= 0 and finite")],
        ids=["bool", "str", "none", "huge"])
    def test_noise_sigma_not_a_finite_real_refused(self, value, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            io.synth_ppg([800.0] * 10, 100.0, noise_sigma=value)


def _beat_times(plan: str, n_beats: int = 120) -> np.ndarray:
    if plan == "rr300":  # the shortest interval a plan may hold
        return np.cumsum(np.full(n_beats, 300.0)) / 1000.0
    rng = np.random.default_rng(11)
    if plan == "dense":  # up to 30 lobes on a sample: their order shows in the sum
        return np.cumsum(rng.uniform(10.0, 60.0, n_beats)) / 1000.0
    return np.cumsum(rng.uniform(300.0, 2000.0, n_beats)) / 1000.0


class TestRenderBeats:
    """The one-pass render against the per-beat slice-add loop: bit-equal."""

    @pytest.mark.parametrize("fs", [25.0, 100.0, 250.0, 1000.0])
    @pytest.mark.parametrize("dicrotic", [False, True])
    @pytest.mark.parametrize("plan", ["rr300", "random", "dense"])
    def test_bit_equal_to_per_beat_loop(self, fs, dicrotic, plan):
        beats = _beat_times(plan)
        n = int(round((beats[-1] + io.PULSE_WIDTH_S) * fs))
        assert_bit_equal(io._render_beats(beats, fs, n, dicrotic),
                         scalar_synth.render_beats(beats, fs, n, dicrotic))

    @pytest.mark.parametrize("fs", [25.0, 100.0, 1000.0])
    @pytest.mark.parametrize("dicrotic", [False, True])
    def test_lobes_clipped_at_both_ends(self, fs, dicrotic):
        # The beat at 0.05 s starts before sample 0 and the last beat before
        # n ends past it; a beat at -1 s and one past n have no samples.
        beats = _beat_times("random", 40)
        beats = np.r_[-1.0, beats - beats[0] + 0.05, beats[-1] + 5.0]
        n = int(beats[-2] * fs)
        assert_bit_equal(io._render_beats(beats, fs, n, dicrotic),
                         scalar_synth.render_beats(beats, fs, n, dicrotic))

    @settings(max_examples=60, deadline=None)
    @given(fs=st.floats(25.0, 1000.0), dicrotic=st.booleans(),
           rr=st.lists(st.floats(10.0, 2000.0), min_size=1, max_size=30),
           t0=st.floats(-1.0, 1.0), cut=st.floats(0.0, 1.0))
    def test_bit_equal_property(self, fs, dicrotic, rr, t0, cut):
        beats = t0 + np.cumsum(rr) / 1000.0
        n = int(max(0.0, beats[-1] + io.PULSE_WIDTH_S) * fs * cut)
        assert_bit_equal(io._render_beats(beats, fs, n, dicrotic),
                         scalar_synth.render_beats(beats, fs, n, dicrotic))

    @pytest.mark.parametrize("n_subjects", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_synth_cohort_bit_equal(self, monkeypatch, n_subjects, seed):
        spec = io.SynthCohortSpec(n_subjects=n_subjects, seed=seed)
        ds = io.synth_cohort(spec)
        rendered = {}  # every subject has the same beat plan: render it once

        def loop(beats, fs, n, dicrotic):
            key = (beats.tobytes(), fs, n, dicrotic)
            if key not in rendered:
                rendered[key] = scalar_synth.render_beats(beats, fs, n, dicrotic)
            return rendered[key].copy()

        monkeypatch.setattr(io, "_render_beats", loop)
        for a, b in zip(ds, io.synth_cohort(spec), strict=True):
            assert_bit_equal(a.samples, b.samples)


class TestSignalWrite:
    """`save_dataset` formats its signal a chunk at a time: the file must be
    byte-equal to one `FLOAT_FMT` per value."""

    # Each written in exponent form by %.12g, or a sign and exponent corner.
    EXPONENT_FORM = [1e-5, -3.25e-7, 1.5e17, 6.02214076e23, -1e300, 5e-324,
                     np.finfo(float).max, -0.0, 1e12, 123456789012345.0]

    def _written(self, tmp_path, samples) -> bytes:
        trace = io.PpgTrace("S01", 100.0, samples)
        io.save_dataset(io.Dataset((trace,)), tmp_path)
        return (tmp_path / "S01_ppg.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lengths_around_a_chunk(self, tmp_path, offset):
        n = io._CHUNK + offset
        rng = np.random.default_rng(offset + 1)
        x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-20, 20, n)
        x[::97] = np.resize(self.EXPONENT_FORM, len(x[::97]))
        assert self._written(tmp_path, x) == scalar_synth.signal_text(x).encode()

    def test_exponent_form_values(self, tmp_path):
        x = np.array(self.EXPONENT_FORM)
        text = scalar_synth.signal_text(x)
        assert "e-05" in text and "e+17" in text and "\n-0\n" in text
        assert self._written(tmp_path, x) == text.encode()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
           chunk=st.integers(1, 5))
    def test_any_values_any_chunk(self, tmp_path, monkeypatch, x, chunk):
        monkeypatch.setattr(io, "_CHUNK", chunk)
        assert self._written(tmp_path, x) == scalar_synth.signal_text(x).encode()

    def test_cohort_files_byte_equal(self, cohort16, tmp_path):
        two = io.Dataset(cohort16.traces[:2])
        io.save_dataset(two, tmp_path)
        for tr in two:
            assert ((tmp_path / f"{tr.subject_id}_ppg.csv").read_bytes()
                    == scalar_synth.signal_text(tr.samples).encode())


class TestSynthCohort:
    def test_structure(self):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=3, seed=1))
        assert len(ds) == 3
        for tr in ds:
            assert len(tr.annotations) == 2
            assert tr.annotations[0].condition is io.Condition.RELAXING
            assert tr.annotations[1].condition is io.Condition.STRESSFUL
            assert 6 <= len(tr.suds) <= 8

    def test_deterministic(self):
        spec = io.SynthCohortSpec(n_subjects=2, seed=5)
        a, b = io.synth_cohort(spec), io.synth_cohort(spec)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.samples, tb.samples)
            assert ta.suds == tb.suds

    def test_heart_rates_in_plan(self):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=2,
                                                noise_sigma=0.0))
        tr = ds.traces[0]
        relax, stress = tr.annotations
        # stressed span packs more beats per second than the relaxed one
        assert (stress.end_s - stress.start_s) == pytest.approx(420.0, abs=2.5)
        assert (relax.end_s - relax.start_s) == pytest.approx(420.0, abs=2.5)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            io.SynthCohortSpec(n_subjects=0)
        with pytest.raises(ValidationError):
            io.SynthCohortSpec(fs=-1)
        # The spec took any positive fs, and synth_cohort then refused the
        # first trace it rendered.
        with pytest.raises(ValidationError,
                           match=r"^fs must be a finite number >= 25 Hz, got 10\.0$"):
            io.SynthCohortSpec(fs=10.0)

    @pytest.mark.parametrize("name", ["fs", "span_s", "relaxed_hr", "stressed_hr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_spec(self, name, value):
        # An infinite span_s would loop forever in plan_rr, a nan fs fail in round().
        problem = (f"fs must be a finite number >= 25 Hz, got {value}" if name == "fs"
                   else f"{name} must be positive and finite")
        with pytest.raises(ValidationError, match=f"^{problem}$"):
            io.SynthCohortSpec(**{name: value})

    # A string would fail the range check with a bare TypeError.
    @pytest.mark.parametrize("name", ["fs", "span_s", "relaxed_hr", "stressed_hr"])
    @pytest.mark.parametrize("value", ["100", None, True])
    def test_spec_not_a_real_refused(self, name, value):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
            io.SynthCohortSpec(**{name: value})

    @pytest.mark.parametrize("name", ["relaxed_hrv", "stressed_hrv"])
    @pytest.mark.parametrize("amps", [(math.nan, 50.0), (40.0, math.inf),
                                      (-math.inf, 10.0), (40.0,), (1.0, 2.0, 3.0),
                                      5.0, "ab", [40.0, 50.0], np.array([40.0, 50.0])])
    def test_hrv_amplitudes_two_finite(self, name, amps):
        # plan_rr clipped a nan interval to 300 ms: max(300.0, nan) is 300.
        with pytest.raises(ValidationError, match=f"{name} must be two finite amplitudes"):
            io.SynthCohortSpec(**{name: amps})

    # A string raised a bare TypeError from isfinite, and a bool was taken as
    # an amplitude of 1 ms.
    @pytest.mark.parametrize("name", ["relaxed_hrv", "stressed_hrv"])
    @pytest.mark.parametrize("amps,shown", [(("a", 1.0), "'a'"), ((True, 1.0), "True")],
                             ids=["str", "bool"])
    def test_hrv_amplitude_not_a_real_refused(self, name, amps, shown):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be a real number, got {shown}$"):
            io.SynthCohortSpec(**{name: amps})

    def test_hrv_amplitudes_stored_as_floats(self):
        spec = io.SynthCohortSpec(relaxed_hrv=(np.int64(40), 50))
        assert spec.relaxed_hrv == (40.0, 50.0)
        assert all(type(a) is float for a in spec.relaxed_hrv)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_noise_sigma_finite(self, value):
        with pytest.raises(ValidationError, match="noise_sigma must be >= 0 and finite"):
            io.SynthCohortSpec(noise_sigma=value)

    @pytest.mark.parametrize("value,shown", [
        (True, "noise_sigma must be a real number, got True"),
        ("0.1", "noise_sigma must be a real number, got '0.1'"),
        (10 ** 400, "noise_sigma must be >= 0 and finite")],
        ids=["bool", "str", "huge"])
    def test_noise_sigma_not_a_finite_real_refused(self, value, shown):
        with pytest.raises(ValidationError, match=f"^{shown}$"):
            io.SynthCohortSpec(noise_sigma=value)

    @pytest.mark.parametrize("value", [0, np.int64(1), np.float32(0.5)])
    def test_noise_sigma_stored_as_float(self, value):
        spec = io.SynthCohortSpec(noise_sigma=value)
        assert type(spec.noise_sigma) is float and spec.noise_sigma == value

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", 0, -1, True])
    def test_n_subjects_whole_number(self, value):
        with pytest.raises(ValidationError, match="n_subjects must be a whole number >= 1"):
            io.SynthCohortSpec(n_subjects=value)

    @pytest.mark.parametrize("value", [-1, 2.5, 2.0, math.nan, math.inf, True, "3",
                                       np.int64(-2), np.float64(1.0)])
    def test_seed_whole_number(self, value):
        # numpy raised ValueError for -1 and TypeError for 2.5 and nan.
        with pytest.raises(ValidationError, match="seed must be a whole number >= 0"):
            io.SynthCohortSpec(seed=value)

    @pytest.mark.parametrize("value", [0, 7, np.int64(3), 2 ** 70])
    def test_seed_accepted(self, value):
        assert len(io.synth_cohort(io.SynthCohortSpec(n_subjects=1, span_s=60.0,
                                                      seed=value))) == 1


class TestRoundTrip:
    def test_save_load_value_equal(self, tmp_path):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        back = io.load_dataset(manifest)
        assert len(back) == len(ds)
        for a, b in zip(ds, back):
            assert a.subject_id == b.subject_id and a.fs == b.fs
            np.testing.assert_allclose(a.samples, b.samples, rtol=1e-9)
            assert a.suds == b.suds
            for sa, sb in zip(a.annotations, b.annotations):
                assert sa.condition == sb.condition
                assert sa.start_s == pytest.approx(sb.start_s, rel=1e-9)

    def test_whole_float_suds_round_trip(self, tmp_path):
        spans = (io.ConditionSpan(0.0, 1.0, io.Condition.RELAXING),)
        ds = io.Dataset((io.PpgTrace("s1", 100.0, np.zeros(200), spans,
                                     (io.SudsRating(0.5, 50.0),)),))
        back = io.load_dataset(io.save_dataset(ds, tmp_path))
        assert (tmp_path / "s1_suds.csv").read_text() == "time_s,value\n0.5,50\n"
        assert back.traces[0].suds == ds.traces[0].suds == (io.SudsRating(0.5, 50),)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            io.load_dataset(tmp_path / "nope.json")

    def test_missing_signal_file(self, tmp_path):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_ppg.csv").unlink()
        with pytest.raises(ValidationError, match="S01_ppg.csv"):
            io.load_dataset(manifest)

    def test_suds_out_of_range_with_line(self, tmp_path):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_suds.csv").write_text("time_s,value\n60,120\n")
        with pytest.raises(ValidationError, match=r"SUDs out of \[0,100\].*:2"):
            io.load_dataset(manifest)

    # SudsRating's messages show the parsed value, not the file's text.
    @pytest.mark.parametrize("row,problem", [
        ("60,12.7", "SUDs must be a whole number, got 12.7"),
        ("60,1e400", "SUDs must be a whole number, got inf"),
        ("7,extra", "bad SUDs row"),
        ("60,50,extra", "bad SUDs row"),
        ("inf,50", "SUDs time must be finite, got inf"),
        ("nan,50", "SUDs time must be finite, got nan"),
    ])
    def test_bad_suds_value_named_with_line(self, tmp_path, row, problem):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_suds.csv").write_text(f"time_s,value\n30,40\n{row}\n")
        with pytest.raises(ValidationError, match=rf"subject S01: {problem}.* S01_suds.csv:3$"):
            io.load_dataset(manifest)

    def test_bad_condition_named(self, tmp_path):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_annotations.csv").write_text(
            "start_s,end_s,condition\n0,420,sleepy\n")
        with pytest.raises(ValidationError, match=r"subject S01: unknown condition "
                           r"'sleepy'.* at S01_annotations.csv:2$"):
            io.load_dataset(manifest)

    # At 333.3 Hz, n / fs of 333 467 samples (about 1000.5 s) printed with
    # %.12g rounds up by 2.2e-9 s, past the 1e-9 s that PpgTrace allows, so
    # the saved trace did not load.
    def test_span_ending_at_trace_end_reloads_bit_equal(self, tmp_path):
        fs, n = 333.3, 333_467
        end = n / fs
        assert float("%.12g" % end) - end > 2e-9
        spans = (io.ConditionSpan(0.0, end / 3, io.Condition.RELAXING),
                 io.ConditionSpan(end / 3, end, io.Condition.STRESSFUL))
        suds = (io.SudsRating(end / 7, 20), io.SudsRating(end - 0.1, 80))
        ds = io.Dataset((io.PpgTrace("S01", fs, np.zeros(n), spans, suds),))
        (back,) = io.load_dataset(io.save_dataset(ds, tmp_path))
        assert back.fs.hex() == fs.hex()
        assert bits(back.annotations) == bits(spans) and bits(back.suds) == bits(suds)

    @pytest.mark.parametrize("row", ["0,200.8,relaxing,extra", "0,200.8"])
    def test_annotation_field_count_named(self, tmp_path, row):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_annotations.csv").write_text(
            f"start_s,end_s,condition\n{row}\n200.8,420,stressful\n")
        with pytest.raises(ValidationError,
                           match=r"subject S01: bad annotation at S01_annotations.csv:2$"):
            io.load_dataset(manifest)


def bits(items) -> list:
    """Spans or ratings as their float fields' hex strings and other fields."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in vars(x).values())
            for x in items]


@st.composite
def datasets(draw):
    """Up to two traces of any fs and length, with spans whose last one ends at
    the trace's end, n / fs, and SUDs ratings at any finite time."""
    traces = []
    for i in range(draw(st.integers(1, 2))):
        fs = draw(st.floats(25.0, 1000.0))
        samples = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                          allow_subnormal=False), min_size=1, max_size=50))
        end = len(samples) / fs
        cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))
        bounds = sorted({end * c for c in cuts} | {0.0}) + [end]
        spans = tuple(io.ConditionSpan(a, b, draw(st.sampled_from(list(io.Condition))))
                      for a, b in zip(bounds, bounds[1:]) if b > a)
        suds = tuple(io.SudsRating(t, v) for t, v in draw(st.lists(st.tuples(
            st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 100)),
            max_size=3)))
        traces.append(io.PpgTrace(f"S{i + 1:02d}", fs, np.array(samples), spans, suds))
    return io.Dataset(tuple(traces))


# The spans' and ratings' times were written with %.12g, which moved most of
# them: a span ending at n / fs could load as ending past the trace.
@settings(max_examples=100, deadline=None)
@given(ds=datasets())
def test_save_load_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        back = io.load_dataset(io.save_dataset(ds, tmp))
    for a, b in zip(ds, back, strict=True):
        assert b.subject_id == a.subject_id and b.fs.hex() == a.fs.hex()
        assert bits(b.annotations) == bits(a.annotations)
        assert bits(b.suds) == bits(a.suds)
        # FLOAT_FMT's 12 significant digits: half a unit in the 12th place.
        np.testing.assert_allclose(b.samples, a.samples, rtol=5e-12, atol=0)


@pytest.fixture
def saved1(tmp_path):
    """A saved 1-subject cohort: (manifest path, the dataset loaded from it)."""
    manifest = io.save_dataset(io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3)),
                               tmp_path)
    return manifest, io.load_dataset(manifest)


class TestSignalParse:
    """The signal column is parsed by np.loadtxt; none of its behaviour leaks."""

    @pytest.mark.parametrize("row", [
        "0.5,junk", "0.5,", "0.5,0.7", "junk", "   ", "#1", "1_000", '"0.5"',
        "\u0661\u0662", "0x10",
    ])
    def test_bad_row_named_with_line(self, saved1, row):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text(f"ppg\n0.1\n0.2\n{row}\n0.3\n",
                                                     encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^subject S01: bad sample at S01_ppg.csv:4$"):
            io.load_dataset(manifest)

    def test_undecodable_byte_named(self, saved1):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_bytes(b"ppg\n0.1\n0.\xff2\n0.3\n")
        with pytest.raises(ValidationError, match=r"bad sample at S01_ppg.csv:3$"):
            io.load_dataset(manifest)

    @pytest.mark.parametrize("text", ["ppg\n0.5,0.7\n", "ppg\n0.5,0.7\n0.1,0.2\n"])
    def test_rows_of_two_fields_named(self, saved1, text):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text(text)
        with pytest.raises(ValidationError, match=r"bad sample at S01_ppg.csv:2$"):
            io.load_dataset(manifest)

    def test_one_sample_is_1d(self, saved1):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text("ppg\n0.25\n")
        (manifest.parent / "S01_annotations.csv").write_text("start_s,end_s,condition\n")
        (manifest.parent / "S01_suds.csv").write_text("time_s,value\n")
        (tr,) = io.load_dataset(manifest)
        assert tr.samples.shape == (1,) and tr.samples[0] == 0.25

    @pytest.mark.parametrize("text", ["ppg\n", "ppg\n\n\n", "ppg"])
    def test_header_only_no_numpy_warning(self, saved1, text):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"^subject S01: span ends at .*s, trace is 0.0s$"):
                io.load_dataset(manifest)

    def test_empty_file(self, saved1):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text("")
        with pytest.raises(ValidationError, match="subject S01: empty file .*S01_ppg.csv"):
            io.load_dataset(manifest)

    def test_wrong_header(self, saved1):
        manifest, _ = saved1
        (manifest.parent / "S01_ppg.csv").write_text("ppg,x\n0.1,0.2\n")
        with pytest.raises(ValidationError, match=r"header \['ppg', 'x'\] != \['ppg'\]"):
            io.load_dataset(manifest)

    def test_blank_lines_and_crlf_load_equal(self, saved1):
        manifest, (tr,) = saved1
        for name in ("S01_ppg.csv", "S01_annotations.csv", "S01_suds.csv"):
            path = manifest.parent / name
            lines = path.read_text().splitlines()
            lines.insert(2, "")
            path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        (back,) = io.load_dataset(manifest)
        assert np.array_equal(back.samples, tr.samples)
        assert back.annotations == tr.annotations and back.suds == tr.suds

    def test_samples_equal_float_of_each_line(self, saved1):
        manifest, (tr,) = saved1
        lines = (manifest.parent / "S01_ppg.csv").read_text().splitlines()[1:]
        assert tr.samples.dtype == np.float64
        assert np.array_equal(tr.samples, [float(v) for v in lines])


class TestManifest:
    def _edit(self, manifest, **entry):
        doc = json.loads(manifest.read_text())
        doc["subjects"][0].update(entry)
        manifest.write_text(json.dumps(doc))

    @pytest.mark.parametrize("fs", ["abc", None, math.nan, math.inf, 10.0, [100]])
    def test_bad_fs_named(self, saved1, fs):
        manifest, _ = saved1
        self._edit(manifest, fs=fs)
        with pytest.raises(ValidationError, match=r"^subject S01: fs must be a finite number"):
            io.load_dataset(manifest)

    @pytest.mark.parametrize("sid", ["S,01", "../x"])
    def test_bad_id_named(self, saved1, sid):
        manifest, _ = saved1
        self._edit(manifest, id=sid)
        with pytest.raises(ValidationError, match=f"^subject id {sid!r} must be"):
            io.load_dataset(manifest)

    # str() turned null into subject "None" and ["S01"] into "['S01']".
    @pytest.mark.parametrize("sid", [None, ["S01"], 7, True])
    def test_non_string_id_refused(self, saved1, sid):
        manifest, _ = saved1
        self._edit(manifest, id=sid)
        with pytest.raises(ValidationError, match=rf"^manifest subject 1: id must be a "
                           rf"string, got {re.escape(repr(sid))}$"):
            io.load_dataset(manifest)

    # `base / 7` raised a bare TypeError.
    @pytest.mark.parametrize("key", ["signal", "annotations", "suds"])
    @pytest.mark.parametrize("name", [7, None, ["S01_ppg.csv"]], ids=["int", "null", "list"])
    def test_non_string_file_name_refused(self, saved1, key, name):
        manifest, _ = saved1
        self._edit(manifest, **{key: name})
        with pytest.raises(ValidationError, match=rf"^manifest subject 1: {key} must be a "
                           rf"string, got {re.escape(repr(name))}$"):
            io.load_dataset(manifest)

    @pytest.mark.parametrize("text", [b'{"subjects": [\xff]}', b'{"subjects": ['])
    def test_malformed_manifest(self, tmp_path, text):
        (tmp_path / "manifest.json").write_bytes(text)
        with pytest.raises(ValidationError, match="malformed manifest"):
            io.load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("subjects", [5, "S01", {"id": "S01"}, None])
    def test_subjects_not_a_list(self, tmp_path, subjects):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"subjects": subjects}))
        with pytest.raises(ValidationError, match="has no 'subjects' list"):
            io.load_dataset(manifest)

    @pytest.mark.parametrize("entry", [5, "S01", [1, 2], {"id": "S01", "fs": 100.0}])
    def test_entry_not_an_object_with_keys(self, tmp_path, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"subjects": [entry]}))
        with pytest.raises(ValidationError, match="manifest subject 1 is not an object "
                           "with keys id, fs, signal, annotations, suds"):
            io.load_dataset(manifest)


# Each turns a data line of any cohort CSV into one the loader must refuse.
CORRUPTIONS = {
    "extra field": lambda line: line + ",junk",
    "empty extra field": lambda line: line + ",",
    "comment mark": lambda line: "#" + line,
    "digit separator": lambda line: ",".join(["1_000"] + line.split(",")[1:]),
    "non-ASCII digit": lambda line: ",".join(["\u0661"] + line.split(",")[1:]),
    "word": lambda line: "junk",
    "spaces": lambda line: "   ",
}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_subjects=st.integers(1, 2),
       fs=st.sampled_from([25.0, 40.0]), data=st.data())
def test_corrupt_line_named(seed, n_subjects, fs, data):
    ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=n_subjects, seed=seed, fs=fs,
                                            span_s=60.0))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = io.save_dataset(ds, tmp)
        files = sorted(p for p in Path(tmp).glob("*.csv")
                       if len(p.read_text().splitlines()) > 1)
        path = data.draw(st.sampled_from(files), label="file")
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(1, len(lines) - 1), label="line index")
        how = data.draw(st.sampled_from(sorted(CORRUPTIONS)), label="corruption")
        lines[i] = CORRUPTIONS[how](lines[i])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            io.load_dataset(manifest)
    sid = path.name.split("_")[0]
    assert str(err.value).startswith(f"subject {sid}: ")
    assert str(err.value).endswith(f" at {path.name}:{i + 1}")
