import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ppgstress
from ppgstress import cli, evaluate, io, windows


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def no_data(*args):
    raise AssertionError("data read before the options were checked")


class TestSynth:
    def test_writes_manifest_and_signals(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(capsys, "synth", "--subjects", "3", "--seed", "7",
                              "--out", str(out))
        assert code == 0
        assert (out / "manifest.json").exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["subjects"]) == 3
        for entry in doc["subjects"]:
            assert (out / entry["signal"]).exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "synth", "--subjects", "2", "--seed", "7", "--out", str(a))
        run(capsys, "synth", "--subjects", "2", "--seed", "7", "--out", str(b))
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_zero_subjects_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--subjects", "0",
                           "--out", str(tmp_path / "d"))
        assert code == 1
        assert "subjects" in err

    # --fs 10 passed the spec, and synth_cohort then refused subject S01,
    # naming a subject that was never written.
    @pytest.mark.parametrize("option,problem", [
        (("--seed", "-1"), "seed must be a whole number >= 0, got -1"),
        (("--fs", "10"), "fs must be a finite number >= 25 Hz, got 10.0"),
    ], ids=["negative-seed", "fs-below-floor"])
    def test_bad_spec_usage_error(self, tmp_path, capsys, option, problem):
        code, out, err = run(capsys, "synth", "--subjects", "1", *option,
                             "--out", str(tmp_path / "d"))
        assert code == 1
        assert err.splitlines() == [f"error: {problem}"]
        assert out == "" and not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert cli.main(["synth", "--subjects", "3", "--seed", "5",
                     "--out", str(out)]) == 0
    return out / "manifest.json"


class TestFeatures:
    def test_header_has_catalog_columns(self, small_manifest, tmp_path, capsys):
        out = tmp_path / "features.csv"
        code, _, _ = run(capsys, "features", "--manifest", str(small_manifest),
                         "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:3] == ["subject", "label", "start_s"]
        assert len(header) == 3 + 27

    def test_window_below_floor_refused(self, small_manifest, tmp_path, capsys):
        code, _, err = run(capsys, "features", "--manifest",
                           str(small_manifest), "--window", "50",
                           "--out", str(tmp_path / "f.csv"))
        assert code == 1
        assert "60 s" in err


class TestEval:
    def test_lda_json_report(self, small_manifest, tmp_path, capsys):
        out = tmp_path / "reports"
        code, stdout, _ = run(capsys, "eval", "--manifest", str(small_manifest),
                              "--model", "lda", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "cv_report_lda.json").read_text())
        assert doc["mean_accuracy"] >= 0.9
        assert "mean-over-subjects" in stdout

    def test_multiple_models(self, small_manifest, tmp_path, capsys):
        out = tmp_path / "reports"
        code, stdout, _ = run(capsys, "eval", "--manifest", str(small_manifest),
                              "--model", "lda", "--model", "knn",
                              "--out", str(out))
        assert code == 0
        assert (out / "cv_report_lda.json").exists()
        assert (out / "cv_report_knn.json").exists()

    def test_matrix_built_once_for_all_models(self, small_manifest, tmp_path,
                                              capsys, monkeypatch):
        calls = []
        build = evaluate.build_matrix

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(evaluate, "build_matrix", counting_build)
        out = tmp_path / "reports"
        code, _, _ = run(capsys, "eval", "--manifest", str(small_manifest),
                         "--model", "lda", "--model", "knn", "--out", str(out))
        assert code == 0
        assert len(calls) == 1
        ds = io.load_dataset(small_manifest)
        for kind in ("lda", "knn"):
            expected = evaluate.loso(ds, windows.WindowSpec(), 35, kind, 0)
            assert (out / f"cv_report_{kind}.json").read_bytes() \
                == (expected.to_json() + "\n").encode()

    def test_negative_model_seed_usage_error(self, small_manifest, capsys):
        code, out, err = run(capsys, "eval", "--manifest", str(small_manifest),
                             "--model", "sgd", "--seed", "-1")
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] \
            == ["error: seed must be a whole number >= 0, got -1"]

    def test_unknown_model_usage_error(self, small_manifest, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--manifest", str(small_manifest),
                      "--model", "forest"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "lda" in err and "knn" in err and "sgd" in err


class TestSweep:
    def test_two_sizes(self, small_manifest, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--manifest", str(small_manifest),
                         "--sizes", "60,80", "--k", "10", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_s,mean_accuracy,pooled_accuracy"
        assert len(lines) == 3

    def test_size_below_floor(self, small_manifest, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--manifest", str(small_manifest),
                           "--sizes", "40", "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert "60 s" in err


    @pytest.mark.parametrize("sizes", ["60,abc", ","])
    def test_bad_size_list_refused(self, sizes, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(io, "load_dataset", no_data)
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--manifest",
                           str(tmp_path / "manifest.json"), "--sizes", sizes,
                           "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "--sizes" in err
        assert not out.exists()


@pytest.mark.parametrize("argv,shown", [
    (["sweep", "--sizes", "nan"], "size must be finite and >= 60 s, got nan"),
    (["sweep", "--sizes", "60,inf"], "size must be finite and >= 60 s, got inf"),
    (["eval", "--window", "nan"], "size must be finite and >= 60 s, got nan")],
    ids=["sweep-nan", "sweep-inf", "eval-nan"])
def test_non_finite_window_refused_before_data(argv, shown, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(io, "load_dataset", no_data)
    code, _, err = run(capsys, *argv, "--manifest", str(tmp_path / "manifest.json"),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error:") and shown in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_bad_model_seed_refused_before_data(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(io, "load_dataset", no_data)
    monkeypatch.setattr(windows, "prepare_trace", no_data)
    code, out, err = run(capsys, command, "--manifest",
                         str(tmp_path / "missing" / "manifest.json"),
                         "--seed", "-1", "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: seed must be a whole number >= 0, got -1"]


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_bad_k_refused_before_data(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(io, "load_dataset", no_data)
    monkeypatch.setattr(windows, "prepare_trace", no_data)
    code, out, err = run(capsys, command, "--manifest",
                         str(tmp_path / "missing" / "manifest.json"),
                         "--k", "0", "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: k must be >= 1, got 0"]


def test_repeated_model_refused_before_data(tmp_path, capsys, monkeypatch):
    # The repeat ran LOSO twice, printed it twice and wrote its report twice.
    monkeypatch.setattr(io, "load_dataset", no_data)
    monkeypatch.setattr(windows, "prepare_trace", no_data)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "eval", "--manifest",
                            str(tmp_path / "missing" / "manifest.json"),
                            "--model", "lda", "--model", "lda", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.splitlines() == ["error: model kind 'lda' given twice"]
    assert not out.exists()


# Options a subcommand does not read (--synth and --subjects on any data
# subcommand, --k and --seed on features, --seed on suds) and a missing
# --manifest are argparse usage errors.
@pytest.mark.parametrize("argv,shown", [
    (["eval", "--manifest", "m.json", "--synth"], "unrecognized arguments: --synth"),
    (["features", "--manifest", "m.json", "--out", "f.csv", "--subjects", "2"],
     "unrecognized arguments: --subjects 2"),
    (["eval", "--manifest", "m.json", "--subjects", "2"],
     "unrecognized arguments: --subjects 2"),
    (["sweep", "--manifest", "m.json", "--out", "s.csv", "--subjects", "2"],
     "unrecognized arguments: --subjects 2"),
    (["suds", "--manifest", "m.json", "--subjects", "2"],
     "unrecognized arguments: --subjects 2"),
    (["features", "--manifest", "m.json", "--out", "f.csv", "--k", "5"],
     "unrecognized arguments: --k 5"),
    (["features", "--manifest", "m.json", "--out", "f.csv", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["suds", "--manifest", "m.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["features", "--out", "f.csv"], "the following arguments are required: --manifest"),
    (["eval"], "the following arguments are required: --manifest"),
    (["sweep", "--out", "s.csv"], "the following arguments are required: --manifest"),
    (["suds"], "the following arguments are required: --manifest")],
    ids=["eval-synth", "features-subjects", "eval-subjects", "sweep-subjects",
         "suds-subjects", "features-k", "features-seed", "suds-seed",
         "features-no-manifest", "eval-no-manifest", "sweep-no-manifest",
         "suds-no-manifest"])
def test_removed_or_missing_option_usage_error(argv, shown, capsys, monkeypatch):
    monkeypatch.setattr(io, "load_dataset", no_data)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # argparse reports an unknown option from the top-level parser, a
    # missing one from the subcommand's.
    prog = "ppgstress" if shown.startswith("unrecognized") else f"ppgstress {argv[0]}"
    assert err.startswith(f"usage: {prog} ")
    assert err.splitlines()[-1] == f"{prog}: error: {shown}"


class TestSuds:
    def test_planted_cohort_p_value(self, small_manifest, tmp_path, capsys):
        out = tmp_path / "suds.json"
        code, stdout, _ = run(capsys, "suds", "--manifest", str(small_manifest),
                              "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        # only ~21 pooled ratings from 3 subjects; the full-cohort p < 1e-5
        # bound is asserted in tests/test_evaluate.py
        assert doc["utest"]["p_two_tailed"] < 1e-3

    def test_exact_mode_small_sample(self, tmp_path, capsys):
        out = tmp_path / "c"
        run(capsys, "synth", "--subjects", "1", "--seed", "3",
            "--out", str(out))
        code, stdout, _ = run(capsys, "suds", "--manifest",
                              str(out / "manifest.json"))
        assert code == 0
        assert json.loads(stdout)["utest"]["method"] == "exact"

    def test_missing_suds_file(self, small_manifest, capsys):
        (small_manifest.parent / "S02_suds.csv").unlink()
        code, _, err = run(capsys, "suds", "--manifest", str(small_manifest))
        assert code == 1
        assert "S02" in err

    def test_overflowing_suds_value_exit_code(self, tmp_path, capsys):
        run(capsys, "synth", "--subjects", "1", "--seed", "3", "--out", str(tmp_path))
        (tmp_path / "S01_suds.csv").write_text("time_s,value\n60,1e400\n")
        code, _, err = run(capsys, "suds", "--manifest", str(tmp_path / "manifest.json"))
        assert code == 1
        assert err.startswith("error:") and "S01_suds.csv:2" in err

    @pytest.mark.parametrize("fs", ['"abc"', "null", "NaN", "Infinity"])
    def test_bad_manifest_fs_exit_code(self, tmp_path, capsys, fs):
        run(capsys, "synth", "--subjects", "1", "--seed", "3", "--out", str(tmp_path))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(re.sub(r'"fs": [^,]*', f'"fs": {fs}', manifest.read_text()))
        code, _, err = run(capsys, "eval", "--manifest", str(manifest))
        assert code == 1
        assert err.startswith("error: subject S01: fs must be a finite number >= 25 Hz")

    # A file name that is not a string raised a bare TypeError, and the CLI
    # printed a traceback.
    @pytest.mark.parametrize("key", ["signal", "annotations", "suds"])
    def test_non_string_file_name_exit_code(self, tmp_path, capsys, key):
        run(capsys, "synth", "--subjects", "1", "--seed", "3", "--out", str(tmp_path))
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["subjects"][0][key] = 7
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "suds", "--manifest", str(manifest))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: manifest subject 1: {key} must be a string, got 7"]


@pytest.fixture(scope="module")
def cohort2(tmp_path_factory):
    """The cohort that `ppgstress synth --subjects 2` writes, at the default seed."""
    out = tmp_path_factory.mktemp("cohort2")
    assert cli.main(["synth", "--subjects", "2", "--out", str(out)]) == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def reports80(cohort2, tmp_path_factory):
    """The 80 s reports of two `eval` calls on cohort2: LDA, then KNN and SGD."""
    out = tmp_path_factory.mktemp("reports80")
    assert cli.main(["eval", "--manifest", str(cohort2), "--window", "80",
                     "--out", str(out)]) == 0
    assert cli.main(["eval", "--manifest", str(cohort2), "--model", "knn",
                     "--model", "sgd", "--out", str(out)]) == 0
    return out


class TestRoundTrip:
    """The saved 2-subject cohort through every data subcommand: the results
    must not depend on how the work is split between calls."""

    def test_one_eval_of_three_models_byte_equal(self, cohort2, reports80, tmp_path,
                                                 capsys):
        out = tmp_path / "r3"
        code, _, _ = run(capsys, "eval", "--manifest", str(cohort2), "--model", "lda",
                         "--model", "knn", "--model", "sgd", "--out", str(out))
        assert code == 0
        for kind in ("lda", "knn", "sgd"):
            name = f"cv_report_{kind}.json"
            assert (out / name).read_bytes() == (reports80 / name).read_bytes()

    def test_knn_and_sgd_accuracy_in_unit_interval(self, reports80):
        for kind in ("knn", "sgd"):
            doc = json.loads((reports80 / f"cv_report_{kind}.json").read_text())
            assert 0 <= doc["mean_accuracy"] <= 1

    # 60 s tachograms are single segments shorter than 256 samples, each its
    # own length, so a sweep and a lone build group them into Welch calls
    # differently; segments shared across sizes must change no result.
    def test_sweep_rows_equal_eval_reports(self, cohort2, reports80, tmp_path, capsys):
        r60, sweep = tmp_path / "r60", tmp_path / "sweep.csv"
        assert run(capsys, "eval", "--manifest", str(cohort2), "--window", "60",
                   "--out", str(r60))[0] == 0
        assert run(capsys, "sweep", "--manifest", str(cohort2), "--sizes", "60,80",
                   "--out", str(sweep))[0] == 0
        with open(sweep) as f:
            rows = {row["window_s"]: row for row in csv.DictReader(f)}
        for size, out in (("80", reports80), ("60", r60)):
            rep = json.loads((out / "cv_report_lda.json").read_text())
            for key in ("mean_accuracy", "pooled_accuracy"):
                assert rows[size][key] == f"{rep[key]:.6f}"

    # Every size scores 1.0 on this cohort, so the accuracies above cannot see
    # a feature move; the 60 s build here finds the segment tables that the
    # 80 s build filled.
    def test_lone_features_equal_shared_build(self, cohort2, tmp_path, capsys):
        for size in (80, 60):
            assert run(capsys, "features", "--manifest", str(cohort2), "--window",
                       str(size), "--out", str(tmp_path / f"f{size}.csv"))[0] == 0
        ds = io.load_dataset(cohort2)
        prepared = {t.subject_id: windows.prepare_trace(t) for t in ds}
        for size in (80, 60):
            shared = tmp_path / f"shared{size}.csv"
            windows.build_matrix(ds, windows.WindowSpec(size), prepared).to_csv(shared)
            assert (tmp_path / f"f{size}.csv").read_bytes() == shared.read_bytes()

    def test_corrupt_signal_line_named(self, cohort2, tmp_path, capsys):
        cohort = shutil.copytree(cohort2.parent, tmp_path / "c")
        signal = cohort / "S01_ppg.csv"
        lines = signal.read_text().splitlines(keepends=True)
        lines[2] = "0.5,junk\n"
        signal.write_text("".join(lines))
        code, _, err = run(capsys, "eval", "--manifest", str(cohort / "manifest.json"))
        assert code == 1
        assert err.splitlines() == ["error: subject S01: bad sample at S01_ppg.csv:3"]


class TestCatalog:
    def test_machine_readable_table(self, capsys):
        code, stdout, _ = run(capsys, "catalog")
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["features"]) == 27
        assert doc["catalog_version"]
        assert {"name", "domain", "unit", "formula"} \
            <= set(doc["features"][0])


def test_module_entry_point(capsys):
    """`python -m ppgstress.cli` as a process prints what `cli.main` prints."""
    src = str(Path(ppgstress.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ppgstress.cli", "catalog"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == json.loads(run(capsys, "catalog")[1])


def test_public_surface_pinned():
    assert sorted(ppgstress.__all__) == [
        "CATALOG", "CATALOG_VERSION", "Condition", "ConditionSpan",
        "DataError", "Dataset", "FEATURE_NAMES", "FeatureMatrix",
        "PipelineError", "PpgTrace", "SudsRating",
        "SynthCohortSpec", "ValidationError", "WindowSpec", "all_features",
        "build_matrix", "load_dataset", "loso", "mann_whitney_u",
        "save_dataset", "segment", "stress_level", "suds_report",
        "sweep_windows", "synth_cohort", "synth_ppg"]
    for name in ppgstress.__all__:
        assert getattr(ppgstress, name) is not None
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    commands = {"synth", "features", "eval", "sweep", "suds", "catalog"}
    assert set(sub.choices) == commands
    assert set(cli._COMMANDS) == commands


def test_settable_options_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.option_strings[0] for a in p._actions
                      if not isinstance(a, argparse._HelpAction)}
               for name, p in sub.choices.items()}
    assert options == {
        "synth": {"--subjects", "--seed", "--fs", "--span", "--noise", "--out"},
        "features": {"--manifest", "--window", "--step", "--out"},
        "eval": {"--manifest", "--window", "--step", "--seed", "--k", "--model",
                 "--out"},
        "sweep": {"--manifest", "--seed", "--sizes", "--step", "--k", "--model",
                  "--out"},
        "suds": {"--manifest", "--out"},
        "catalog": set()}
    assert sum(len(o) for o in options.values()) == 26
