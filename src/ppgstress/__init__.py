"""PPG stress-detection toolkit.

Raw photoplethysmogram recordings -> band-pass filtering -> systolic peak
detection -> HRV features per sliding window -> ANOVA-F selection ->
relaxed/stressed classification under leave-one-subject-out evaluation,
with a deterministic synthetic cohort as ground-truth oracle.
"""

from .errors import DataError, PipelineError, ValidationError
from .hrv import CATALOG, CATALOG_VERSION, FEATURE_NAMES, all_features
from .io import (Condition, ConditionSpan, Dataset, PpgTrace, SudsRating,
                 SynthCohortSpec, load_dataset, save_dataset, synth_cohort,
                 synth_ppg)
from .windows import FeatureMatrix, WindowSpec, build_matrix, segment
from .evaluate import loso, mann_whitney_u, suds_report, sweep_windows
from .models import stress_level

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "CATALOG_VERSION", "Condition", "ConditionSpan", "DataError",
    "Dataset", "FEATURE_NAMES", "FeatureMatrix", "PipelineError", "PpgTrace",
    "SudsRating", "SynthCohortSpec", "ValidationError", "WindowSpec",
    "all_features", "build_matrix", "load_dataset", "loso", "mann_whitney_u",
    "save_dataset", "segment", "stress_level", "suds_report", "sweep_windows",
    "synth_cohort", "synth_ppg",
]
