import numpy as np
import pytest

from ppgstress import io
from ppgstress.errors import DataError, ValidationError


class TestTypes:
    def test_fs_floor(self):
        with pytest.raises(ValidationError, match="25 Hz"):
            io.PpgTrace("s1", 10.0, np.zeros(100))

    def test_nonfinite_samples(self):
        with pytest.raises(ValidationError, match="non-finite"):
            io.PpgTrace("s1", 100.0, np.array([1.0, np.nan]))

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

    @pytest.mark.parametrize("row,problem", [
        ("60,12.7", r"SUDs must be a whole number, got '12.7'"),
        ("60,1e400", r"SUDs must be a whole number, got '1e400'"),
        ("7,extra", "bad SUDs row"),
        ("60,50,extra", "bad SUDs row"),
        ("inf,50", "SUDs time must be finite, got 'inf'"),
        ("nan,50", "SUDs time must be finite, got 'nan'"),
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

    @pytest.mark.parametrize("row", ["0,200.8,relaxing,extra", "0,200.8"])
    def test_annotation_field_count_named(self, tmp_path, row):
        ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=1, seed=3))
        manifest = io.save_dataset(ds, tmp_path)
        (tmp_path / "S01_annotations.csv").write_text(
            f"start_s,end_s,condition\n{row}\n200.8,420,stressful\n")
        with pytest.raises(ValidationError,
                           match=r"subject S01: bad annotation at S01_annotations.csv:2$"):
            io.load_dataset(manifest)
