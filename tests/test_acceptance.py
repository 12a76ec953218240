"""The acceptance criteria, one test per criterion.

Each check is made once, by a module test marked `@pytest.mark.acceptance`;
a criterion here runs the marked tests that make up its gate, so that
`pytest tests/test_acceptance.py -rA` prints one line per criterion. A bound
is changed in the module test that owns it, never here. Criterion 3 is the
`test_hrv.py` oracle tests, parametrized over 100 windows.
"""

import numpy as np

import test_dsp
import test_evaluate
import test_models
import test_pulse
import test_windows
from ppgstress import dsp


def test_1_filter_correctness():
    cascade = dsp.design_butter_bandpass(3, 0.5, 8.0, test_dsp.FS)
    design = test_dsp.TestDesign()
    design.test_zero_at_dc_and_nyquist(cascade)
    design.test_passband_gain(cascade)
    design.test_minus_3db_at_both_edges(cascade)
    filtfilt = test_dsp.TestFiltfilt()
    filtfilt.test_passband_tone_amplitude_and_lag()
    filtfilt.test_subband_tone_suppressed(cascade)


def test_2_peak_rr_recovery():
    peaks = test_pulse.TestDetectPeaks()
    peaks.test_recovers_steady_beats()
    peaks.test_noise_robustness()


def test_4_selection_correctness():
    anova = test_windows.TestAnovaF()
    anova.test_hand_computed_value()
    anova.test_affine_invariance()
    anova.test_tie_break_by_catalog_order()


def test_5_classifier_sanity():
    lda = test_models.TestLda()
    lda.test_separable_training_accuracy()
    lda.test_mirrored_classes_probability_half_at_origin()
    sgd = test_models.TestSgd()
    sgd.test_deterministic_per_seed()
    sgd.test_loss_nonincreasing_within_tolerance()


def test_6_u_test_exactness():
    u_test = test_evaluate.TestMannWhitney()
    u_test.test_textbook_exact_case()
    # Hypothesis refuses a second instance calling a @given test, so the
    # symmetry check runs its undecorated body on the criterion's 50 draws.
    u_symmetry = test_evaluate.TestMannWhitney.test_u_symmetry.hypothesis.inner_test
    rng = np.random.default_rng(1)
    for _ in range(50):
        u_symmetry(u_test, list(rng.normal(size=rng.integers(2, 20))),
                   list(rng.normal(size=rng.integers(2, 20))))


def test_7_end_to_end_pipeline(cohort16, matrix16):
    loso = test_evaluate.TestLoso()
    loso.test_planted_cohort_high_accuracy(matrix16)
    loso.test_shuffled_labels_chance_level(matrix16)
    test_evaluate.TestSudsReport().test_planted_cohort(cohort16)


def test_8_window_sweep_artifact():
    sweep = test_evaluate.TestSweep()
    sweep.test_seven_sizes()
    sweep.test_deterministic()
