import os
import subprocess
import sys
from pathlib import Path

import ppgstress

# scipy is a test-side oracle only: with `import scipy` made to fail, the
# package, its CLI and a whole LOSO run must still work, and load no scipy
# module.
SCRIPT = """
import sys
sys.modules["scipy"] = None
import ppgstress, ppgstress.cli
from ppgstress import evaluate, io, windows
ds = io.synth_cohort(io.SynthCohortSpec(n_subjects=2, span_s=200.0, seed=1))
matrix = windows.build_matrix(ds, windows.WindowSpec(80.0, 5.0))
for kind in ("lda", "knn", "sgd"):
    evaluate.loso_matrix(matrix, model_kind=kind)
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
print(matrix.n_rows, loaded)
"""


def test_pipeline_runs_without_scipy():
    src = str(Path(ppgstress.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    rows, loaded = proc.stdout.split(maxsplit=1)
    assert int(rows) > 0
    assert loaded.strip() == "[]"
