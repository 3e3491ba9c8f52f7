"""Wavelet-domain detection of chirp pulses in white Gaussian noise.

The package builds a critically sampled, exactly orthogonal wavelet
pyramid over circularly extended signals, derives the matched-filter
detector on boundary-free detail coefficients in closed form, trains a
weighted soft-margin SVM alternative by sequential minimal optimization,
and compares both against a max-coefficient baseline with fully
reproducible Monte Carlo.
"""

from .detector import (
    Calibration,
    DetectionCurve,
    DetectorStats,
    LinearDetector,
    MaxCoeffDetector,
    analytic_stats,
    calibrate_max_coeff,
    estimate_pd,
    max_coeff_baseline,
    qfunc,
    qfunc_inv,
    realized_pfa_mc,
    statistic,
    sweep_curve,
    threshold_for_pfa_analytic,
    threshold_for_pfa_mc,
)
from .harness import (
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    canonical_config_text,
    config_hash,
    experiment_check,
    parse_config_text,
    run_experiment,
)
from .optimum import optimum_a
from .pipeline import FeaturePipe
from .rng import RNG_ID, derive_seed, substream
from .signals import (
    Hypothesis,
    NoiseModel,
    SampledSignal,
    amplitude,
    make_chirp,
    make_noise,
    make_observation,
)
from .svm import (
    SvmModel,
    TrainingSet,
    build_training_set,
    calibrate_bias,
    decision,
    train,
    tune_c_for_pfa,
)
from .wavelet import (
    DetailCoefficients,
    ScaleLayout,
    WaveletFilterPair,
    count_ops,
    db_filters,
    parse_family,
    pyramid_batch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Calibration", "DetectionCurve", "DetectorStats", "LinearDetector",
    "MaxCoeffDetector", "analytic_stats", "calibrate_max_coeff", "estimate_pd",
    "max_coeff_baseline", "qfunc", "qfunc_inv", "realized_pfa_mc", "statistic",
    "sweep_curve", "threshold_for_pfa_analytic", "threshold_for_pfa_mc",
    "CheckResult", "ExperimentConfig", "ExperimentReport", "canonical_config_text",
    "config_hash", "experiment_check", "parse_config_text",
    "run_experiment",
    "optimum_a",
    "FeaturePipe",
    "RNG_ID", "derive_seed", "substream",
    "Hypothesis", "NoiseModel", "SampledSignal", "amplitude", "make_chirp",
    "make_noise", "make_observation",
    "SvmModel", "TrainingSet", "build_training_set", "calibrate_bias", "decision",
    "train", "tune_c_for_pfa",
    "DetailCoefficients", "ScaleLayout", "WaveletFilterPair", "count_ops",
    "db_filters", "parse_family", "pyramid_batch",
]
