"""The demos and the seed-0 benchmark, each run as its own process.

Each demo runs from an empty directory, since demo 02 writes
`features_demo.csv` into its working directory; a RuntimeWarning (a numpy
divide or invalid value) fails it.

`perfbench/run.py` exits 0 even when an output is wrong, so these tests read
the `correct` field of its last line: true only if every output matches the
seed-0 reference fingerprints in `perfbench/reference/`, each fold's
predicted labels included. The run's record file must also say that a
reference was read, or deleting one would pass. The fingerprints start from
the synthesized samples and, for sweep16, the saved and reloaded signal
files, so they also guard the one-pass pulse render and the chunked signal
writer. A traced run checks its untraced pass against the reference too, so
the traced sweep16 and eval64 runs stand for untraced ones. Two counts are
pinned:
- a traced sweep16 run attempts and keeps 27 872 windows: the tracer counts
  `len(segment(...))`, so this pins the array segmentation's window count
  on the whole workload;
- a traced eval64 run counts 128 LOSO folds (64 subjects, LDA and KNN): the
  tracer wraps `models.knn_fit` and `KnnModel.predict_proba`, so this guards
  the hooks on the fold-batched KNN fit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # The tier-1 PYTHONPATH is relative to the repository, not to tmp_path.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args,counts", [
    (("--workload", "eval16", "--seconds", "1"), {}),
    (("--workload", "sweep16", "--trace", "1"),
     {"hrv.windows_attempted": 27872, "hrv.windows_kept": 27872}),
    (("--workload", "eval64", "--trace", "1"), {"evaluate.folds": 128}),
], ids=["eval16", "sweep16-traced", "eval64-traced"])
def test_benchmark_matches_reference(args, counts):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--seed", "0", *args], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, [line for line in lines if line.startswith("FAILED")]
    (record,) = [line.removeprefix("record: ") for line in lines
                 if line.startswith("record: ")]
    assert json.loads(Path(record).read_text())["reference_checked"] is True
    assert {name: result["metrics"][name]["value"] for name in counts} == counts
