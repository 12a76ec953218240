import ast
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


def private_uses(source: str) -> list[str]:
    """The `_`-prefixed names of ppgstress that `source` imports or reads as
    an attribute of a ppgstress module it imported."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ppgstress":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                elif node.module == "ppgstress":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "ppgstress")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            base = ast.unparse(node.value)
            if base.split(".")[0] in modules:
                found.append(f"{base}.{node.attr}")
    return found


def test_private_uses_are_found():
    source = ("from ppgstress import pulse\npulse._moving_averages(y)\n"
              "from ppgstress.models import LdaModel, _check_fit\n"
              "import ppgstress.dsp as d\nd._minus_square(1.0, 2.0)\n"
              "import ppgstress.io\nppgstress.io._render_beats\n"
              "np._x, pulse.MA_PEAK_S, pulse.__doc__")
    assert sorted(private_uses(source)) == [
        "d._minus_square", "ppgstress.io._render_beats", "ppgstress.models._check_fit",
        "pulse._moving_averages"]


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("scalar_*.py")),
                         ids=lambda p: p.name)
def test_oracles_call_no_private_helper(path):
    """A `scalar_*.py` oracle that calls a private helper of the package runs
    the code it is meant to check, so the two cannot disagree there."""
    assert private_uses(path.read_text()) == []
