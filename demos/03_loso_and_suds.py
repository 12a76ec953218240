"""Leave-one-subject-out evaluation plus the subjective-ratings check.

Runs strict LOSO (per-fold selection and scaling from training rows only)
for all three classifiers on a small synthetic cohort, then tests whether
the subjects' SUDs ratings differ between conditions via Mann-Whitney U.
"""

from ppgstress import SynthCohortSpec, WindowSpec, synth_cohort
from ppgstress.evaluate import shuffle_labels, loso_matrix, suds_report
from ppgstress.windows import build_matrix

ds = synth_cohort(SynthCohortSpec(n_subjects=6, seed=7))
# The feature matrix does not depend on the model: build it once.
matrix = build_matrix(ds, WindowSpec(size_s=80.0, step_s=5.0))

for kind in ("lda", "knn", "sgd"):
    rep = loso_matrix(matrix, k=35, model_kind=kind)
    print(f"{kind}: mean-over-subjects accuracy {rep.mean_accuracy:.3f}, "
          f"pooled {rep.pooled_accuracy:.3f} over {len(rep.folds)} folds")

# Chance-level control: shuffle labels within each subject and re-evaluate.
chance = loso_matrix(shuffle_labels(matrix, seed=13), k=35, model_kind="lda")
print(f"shuffled-label control: {chance.mean_accuracy:.3f} (expect ~0.5)")

suds = suds_report(ds)
print(f"\nSUDs: relaxing median {suds.relaxing['median']:.1f}, "
      f"stressful median {suds.stressful['median']:.1f}")
print(f"Mann-Whitney U = {suds.utest.u:g} ({suds.utest.method}), "
      f"two-tailed p = {suds.utest.p_two_tailed:.3g}")
