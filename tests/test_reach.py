"""Reach audit: every executable line of `src/ppgstress` is run by a real
caller, is part of a refusal, or lies in a function on `ALLOWED`, whose
entries each name their reason.

The real callers are the CLI, each subcommand on a 4-subject cohort plus one
call that exits 1 and one that exits 2, and the three demos. They run in one
fresh interpreter (`python tests/test_reach.py OUT`) under `sys.settrace`,
set before `ppgstress` is imported, so module-level lines count too; it
writes the lines that ran to OUT. A line is executable if the line table
(`co_lines`) of a code object compiled from the file names it. An unreached
line passes if it lies inside a `raise` statement or in an `except` clause
whose body ends in one (a refusal), or in a function on `ALLOWED` or nested
in one. An entry none of whose lines is left unreached fails, so the list
only shrinks; so does an entry without a checkable reason:
- "pinned": the function is kept for a row or count hook of
  `perfbench/spans.py` `TARGETS`, named by its span or hook;
- "public": it belongs to a name in `ppgstress.__all__`, which it names;
- "rare": an input-dependent path that the real callers' clean synthetic
  input never takes, with the tier-1 tests that reach it;
- "option": an option that only tests use, with the tests that use it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "ppgstress"
KINDS = ("pinned", "public", "rare", "option")


class Entry(NamedTuple):
    function: str               # module.Qualified.name, as `owners` names it
    kind: str                   # one of KINDS
    evidence: tuple[str, ...]   # TARGETS spans or hooks, __all__ names, or test ids
    why: str


ALLOWED = (
    # The one-window HRV path and the fold helpers: item 2a deletes their
    # TARGETS rows, and item 3 then deletes them.
    Entry("pulse.slice_window", "pinned", ("pulse.slice_window",), "one-window path"),
    Entry("hrv.time_domain", "pinned", ("hrv.time_domain",), "one-window path"),
    Entry("hrv.frequency_domain", "pinned", ("hrv.frequency_domain",), "one-window path"),
    Entry("hrv.nonlinear", "pinned", ("hrv.nonlinear",), "one-window path"),
    Entry("hrv._one", "pinned", ("hrv.time_domain", "hrv.frequency_domain", "hrv.nonlinear"),
          "the one-window functions' result"),
    Entry("hrv._one_row", "pinned", ("hrv.frequency_domain", "hrv.time_domain"),
          "the one-window functions' columns"),
    Entry("hrv._rr_window", "pinned", ("hrv.time_domain", "hrv.nonlinear"),
          "the one-window functions' intervals"),
    Entry("hrv._refuse", "pinned", ("hrv.all_features", "hrv.frequency_domain"),
          "the one-window span check"),
    Entry("windows.select_top_k", "pinned", ("windows.select_top_k",), "fold helper"),
    Entry("windows.standardize", "pinned", ("windows.standardize",), "fold helper"),
    Entry("moments.of", "pinned", ("windows.standardize",), "only standardize calls it"),
    Entry("windows.FeatureMatrix.rows_for", "pinned", ("windows.fold_split",), "fold helper"),
    Entry("windows.FeatureMatrix.take", "pinned", ("windows.fold_split",), "fold helper"),
    Entry("windows.FeatureMatrix.with_columns", "pinned", ("windows.fold_split",),
          "fold helper"),
    Entry("models.lda_fit", "pinned", ("models.lda_fit",), "LDA on rows, not moments"),
    Entry("models.SgdFolds.loss_per_epoch", "pinned", ("_sgd_steps",),
          "the hook counts SGD steps from it"),
    # Public API that no CLI path, demo or workload calls.
    Entry("hrv.all_features", "public", ("all_features",), "one window's features"),
    Entry("evaluate.loso", "public", ("loso",), "LOSO of a dataset at one spec"),
    Entry("models.stress_level", "public", ("stress_level",), "ROADMAP item 22"),
    Entry("io.Dataset.__len__", "public", ("Dataset",), "len() of a dataset"),
    # Paths that the callers' clean synthetic cohorts never take.
    Entry("dsp.BiquadCascade.__post_init__", "rare",
          ("tests/test_dsp.py::test_filtfilt_double_pole_section",),
          "a section with a double real pole keeps its DF-II-T states"),
    Entry("errors.check_real", "rare", ("tests/test_io.py::TestTypes::test_span_fields_checked",),
          "an int too large for a float becomes +-inf"),
    Entry("evaluate.mann_whitney_u", "rare",
          ("tests/test_evaluate.py::TestMannWhitney::test_textbook_exact_case",
           "tests/test_evaluate.py::TestMannWhitney::test_tied_identical_samples"),
          "the exact p-value up to EXACT_U_CAP ratings, and all ratings tied"),
    Entry("io._samples", "rare",
          ("tests/test_io.py::TestSignalParse::test_bad_row_named_with_line",),
          "a signal file np.loadtxt cannot read is parsed again to name the line"),
    Entry("models.lda_from_moments", "rare",
          ("tests/test_models.py::TestLda::test_warns_when_underdetermined",),
          "the warning for no more rows than columns"),
    Entry("models.KnnModel.predict_proba", "rare",
          ("tests/test_models.py::TestKnnFolds::test_slack_edge_rows_go_to_the_exact_path",),
          "the exact refine of rows the filter leaves undecided"),
    Entry("pulse.detect_peaks", "rare", ("tests/test_pulse.py::TestDetectPeaks::test_all_zero_signal",),
          "a signal with no positive sample"),
    Entry("pulse._pick_peaks", "rare",
          ("tests/test_pulse.py::TestDetectPeaks::test_slow_lobe_gives_no_peaks",
           "tests/test_pulse.py::test_pick_peaks_is_bit_equal_to_per_block_loop"),
          "no block above the threshold, and a peak inside the refractory period"),
    Entry("windows.FeatureMatrix.__post_init__", "rare",
          ("tests/test_refusals.py::test_each_hostile_value_constructs_or_refuses",
           "tests/test_windows.py::TestFiniteValues::test_non_finite_value_named"),
          "an unhashable subject id, and the cell a non-finite value is named by"),
    Entry("windows.build_matrix", "rare",
          ("tests/test_batch_features.py::test_degraded_windows_match_scalar_reference",),
          "the log of dropped windows"),
    Entry("windows._varying", "rare",
          ("tests/test_fold_stats.py::test_fold_constant_column_scores_zero_and_is_dropped",),
          "the log of zero-variance columns"),
    # An option that only tests pass; ROADMAP item 1d decides it.
    Entry("io._render_beats", "option",
          ("tests/test_pulse.py::test_dicrotic_notch_keeps_one_peak_per_beat",),
          "synth_ppg(dicrotic=True) draws a dicrotic lobe"),
)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def run_callers(workdir: Path) -> list[int]:
    """Every real caller, in this process, from `workdir`; the CLI's exit codes."""
    os.chdir(workdir)
    m = str(workdir / "cohort" / "manifest.json")
    calls = [
        ["synth", "--subjects", "4", "--out", "cohort"],
        ["features", "--manifest", m, "--out", "features.csv"],
        ["eval", "--manifest", m, "--model", "lda", "--model", "knn", "--model", "sgd",
         "--out", "reports"],
        ["sweep", "--manifest", m, "--sizes", "60,80", "--out", "sweep.csv"],
        ["suds", "--manifest", m, "--out", "suds.json"],
        ["eval", "--manifest", m, "--k", "0"],  # ValidationError: exit 1
        ["synth", "--subjects", "1", "--span", "60", "--out", "features.csv"],  # OSError: 2
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        # As `python -m ppgstress.cli catalog`, before the module is imported.
        sys.argv = ["ppgstress", "catalog"]
        try:
            runpy.run_module("ppgstress.cli", run_name="__main__")
        except SystemExit as e:
            codes.append(e.code)
        from ppgstress import cli
        codes += [cli.main(argv) for argv in calls]
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    return codes


def trace_callers(workdir: Path) -> tuple[dict[str, set[int]], list[int]]:
    """The lines of each package file that `run_callers` runs, by file name,
    and the CLI's exit codes. A function's first line counts as run when it
    is called, whether or not the interpreter reports a line event for it."""
    reached = {str(path): set() for path in PKG.glob("*.py")}

    def lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in reached:
            return None
        reached[code.co_filename].add(code.co_firstlineno)
        return lines

    sys.settrace(calls)
    try:
        codes = run_callers(workdir)
    finally:
        sys.settrace(None)
    return reached, codes


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that some code object compiled from the source runs."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def owners_and_refusals(source: str) -> tuple[dict[int, str], set[int]]:
    """The innermost function or class around each line, by qualified name
    (module level is absent), and the lines inside refusals: `raise`
    statements, and `except` clauses whose body ends in one."""
    owners, refusals = {}, set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}"
                owners.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1),
                                            inner))
            if isinstance(child, ast.Raise) or (isinstance(child, ast.ExceptHandler)
                                                and isinstance(child.body[-1], ast.Raise)):
                refusals.update(range(child.lineno, child.end_lineno + 1))
            visit(child, inner)

    visit(ast.parse(source), "")
    return {line: name[1:] for line, name in owners.items()}, refusals


def audit(sources: dict[str, str], reached: dict[str, set[int]], allowed=ALLOWED
          ) -> tuple[list[str], dict[str, int]]:
    """The problems of the package whose source is `sources[module]` and
    whose lines `reached[module]` were run, with its line counts."""
    problems, counts = [], dict.fromkeys(("executable", "reached", "refusal", "allowed"), 0)
    covered = dict.fromkeys((entry.function for entry in allowed), 0)
    defined = set()
    for module, source in sorted(sources.items()):
        text = source.splitlines()
        executable = executable_lines(source, module)
        owners, refusals = owners_and_refusals(source)
        defined.update(f"{module}.{name}" for name in owners.values())
        counts["executable"] += len(executable)
        counts["reached"] += len(executable & reached[module])
        for line in sorted(executable - reached[module]):
            owner = f"{module}.{owners.get(line, '<module>')}"
            entry = next((f for f in covered if owner == f or owner.startswith(f + ".")),
                         None)
            if line in refusals:
                counts["refusal"] += 1
            elif entry is not None:
                covered[entry] += 1
                counts["allowed"] += 1
            else:
                problems.append(f"{module}.py:{line} ({owner}) has no caller: "
                                f"{text[line - 1].strip()}")
    for function, lines in covered.items():
        if function not in defined:
            problems.append(f"allowlist entry {function}: no such function")
        elif not lines:
            problems.append(f"allowlist entry {function}: every line is reached or a "
                            "refusal; delete the entry")
    return problems, counts


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PKG.glob("*.py"))}


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> dict[str, set[int]]:
    """The traced run's lines, by module: a fresh interpreter, so that the
    package's import is traced too."""
    out = tmp_path_factory.mktemp("reach")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, str(out / "reached.json")], cwd=out,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "reached.json").read_text())
    assert doc["codes"] == [0, 0, 0, 0, 0, 0, 1, 2], proc.stderr
    return {Path(name).stem: set(lines) for name, lines in doc["reached"].items()}


def test_every_unreached_line_is_a_refusal_or_allowed(reached):
    problems, counts = audit(package_sources(), reached)
    assert not problems, "\n".join(problems + [f"line counts: {counts}"])


def test_planted_helper_fails(reached):
    sources = package_sources()
    sources["errors"] += "\n\ndef _planted(x):\n    return x + 1\n"
    last = sources["errors"].count("\n")
    # Importing the module runs the def line; nothing calls the helper.
    problems, _ = audit(sources, {**reached, "errors": reached["errors"] | {last - 1}})
    assert problems == [f"errors.py:{last} (errors._planted) has no caller: return x + 1"]


def test_entry_whose_lines_are_all_reached_fails(reached):
    problems, _ = audit(package_sources(), reached,
                        ALLOWED + (Entry("cli.main", "public", (), ""),
                                   Entry("cli.gone", "public", (), "")))
    assert problems == [
        "allowlist entry cli.main: every line is reached or a refusal; delete the entry",
        "allowlist entry cli.gone: no such function"]


def node_ids(path: Path) -> set[str]:
    """`file::test` and `file::Class::test` of each test function in a file."""
    rel = path.relative_to(ROOT).as_posix()
    ids = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            ids.update(f"{rel}::{node.name}::{f.name}" for f in node.body
                       if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            ids.add(f"{rel}::{node.name}")
    return ids


def test_every_entry_names_its_reason(monkeypatch):
    import ppgstress
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    pins = ({name for _, _, name, _ in spans.TARGETS}
            | {hook.__name__ for *_, hook in spans.TARGETS if hook})
    tests = set().union(*map(node_ids, (ROOT / "tests").glob("test_*.py")))
    assert len({entry.function for entry in ALLOWED}) == len(ALLOWED)
    for entry in ALLOWED:
        assert entry.kind in KINDS and entry.evidence and entry.why, entry
        known = {"pinned": pins, "public": set(ppgstress.__all__)}.get(entry.kind, tests)
        assert set(entry.evidence) <= known, (entry, set(entry.evidence) - known)


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1])
    with tempfile.TemporaryDirectory() as work:
        lines, exit_codes = trace_callers(Path(work))
    out.write_text(json.dumps(
        {"codes": exit_codes, "reached": {f: sorted(v) for f, v in lines.items()}}))
