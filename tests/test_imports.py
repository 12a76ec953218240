import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppgstress

# scipy is a test-side oracle only: with `import scipy` made to fail, the
# package, its CLI and a whole LOSO run must still work, and load no scipy
# module. numpy.ma, which the first `np.unique` call imports (about 1 MB that
# stays), must not be loaded by LDA, KNN or SGD LOSO either.
SCRIPT = """
import json, sys
sys.modules["scipy"] = None
import ppgstress, ppgstress.cli
from ppgstress import evaluate, io, windows
ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, span_s=200.0, seed=1))
matrix = windows.build_matrix(ds, windows.WindowSpec(80.0, 5.0))
ma = {}
for kind in ("lda", "knn", "sgd"):
    evaluate.loso_matrix(matrix, model_kind=kind)
    ma[kind] = "numpy.ma" in sys.modules
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"rows": matrix.n_rows, "scipy": loaded, "numpy.ma": ma}))
"""


@pytest.fixture(scope="module")
def pipeline_run():
    src = str(Path(ppgstress.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_pipeline_runs_without_scipy(pipeline_run):
    assert pipeline_run["rows"] > 0
    assert pipeline_run["scipy"] == []


def test_loso_does_not_import_numpy_ma(pipeline_run):
    assert pipeline_run["numpy.ma"] == {"lda": False, "knn": False, "sgd": False}
