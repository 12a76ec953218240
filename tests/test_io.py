import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("sid", ["", "S,01", "S\r01", "S\n01", "../x", "a/b",
                                     "a\\b", None, 7])
    def test_bad_subject_id_named(self, sid):
        # A comma adds a field to the feature CSV; a slash moves the saved files.
        with pytest.raises(ValidationError) as e:
            io.PpgTrace(sid, 100.0, np.zeros(100))
        assert str(e.value).startswith(f"subject id {sid!r} must be non-empty")

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

    @pytest.mark.parametrize("name", ["fs", "span_s", "relaxed_hr", "stressed_hr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_spec(self, name, value):
        # An infinite span_s would loop forever in plan_rr, a nan fs fail in round().
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
            io.SynthCohortSpec(**{name: value})

    @pytest.mark.parametrize("name", ["relaxed_hrv", "stressed_hrv"])
    @pytest.mark.parametrize("amps", [(math.nan, 50.0), (40.0, math.inf),
                                      (-math.inf, 10.0), (40.0,), (1.0, 2.0, 3.0)])
    def test_hrv_amplitudes_two_finite(self, name, amps):
        # plan_rr clipped a nan interval to 300 ms: max(300.0, nan) is 300.
        with pytest.raises(ValidationError, match=f"{name} must be two finite amplitudes"):
            io.SynthCohortSpec(**{name: amps})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_noise_sigma_finite(self, value):
        with pytest.raises(ValidationError, match="noise_sigma must be >= 0 and finite"):
            io.SynthCohortSpec(noise_sigma=value)

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", 0, -1])
    def test_n_subjects_whole_number(self, value):
        with pytest.raises(ValidationError, match="n_subjects must be a whole number >= 1"):
            io.SynthCohortSpec(n_subjects=value)


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
