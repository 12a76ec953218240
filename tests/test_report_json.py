"""The exact JSON text of the LOSO and SUDs reports: what `eval --out` and
`suds --out` write.

The cohort's labels are shuffled within each subject, so the accuracies are
fractions rather than 1.0 and their float formatting is pinned too.
"""

from pathlib import Path

import pytest

from ppgstress import evaluate, io, windows

GOLDEN = Path(__file__).parent / "golden"
SPEC = windows.WindowSpec()


@pytest.fixture(scope="module")
def cohort3():
    return io.synth_cohort(io.SynthCohortSpec(n_subjects=3, seed=4))


@pytest.mark.parametrize("kind", ["lda", "knn", "sgd"])
def test_cv_report_json(cohort3, kind):
    matrix = evaluate.shuffle_labels(windows.build_matrix(cohort3, SPEC), seed=0)
    report = evaluate.loso_matrix(matrix, 10, kind, 0, evaluate.window_echo(SPEC))
    assert report.to_json() + "\n" == (GOLDEN / f"cv_report_{kind}.json").read_text()


def test_suds_report_json(cohort3):
    text = evaluate.suds_report(cohort3).to_json()
    assert text + "\n" == (GOLDEN / "suds_report.json").read_text()
