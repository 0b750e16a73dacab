"""Noise-robust training with bootstrapped mixup, plus uncertainty reports.

The package trains a small dropout MLP on synthetic noisy-label data
under four loss regimes, models per-sample label noise with a beta
mixture, and evaluates predictions with calibration metrics, referral
curves and feature-distance analyses.
"""

from .analysis import (
    DistanceRecord,
    ReferralCurve,
    ReferralPoint,
    ThresholdPoint,
    distance_perception_summary,
    distance_records,
    min_cosine_distance,
    min_cosine_distances,
    referral_curve,
    spearman,
    threshold_curve,
)
from .augment import PerturbationPolicy, mixup_batch, perturb, sample_gamma
from .config import (
    AnalysisConfig,
    EstimatorConfig,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
)
from .data import Dataset, build_dataset, generate_dataset, inject_label_noise
from .errors import (
    ConfigError,
    InvalidInputError,
    MixbootError,
    TrainingDivergenceError,
    UndefinedMetricError,
    UnsupportedShapeError,
)
from .estimators import (
    EstimatorOutput,
    ensemble_predict,
    mc_dropout_predict,
    single_forward,
    tta_predict,
)
from .experiment import MetricsReport, run_experiment, run_sweep
from .losses import (
    LossOutput,
    bs_loss,
    bsm_loss,
    ce_loss,
    mixup_ce_loss,
)
from .prob_metrics import (
    PredictionBatch,
    ReliabilityBins,
    accuracy,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood_binary,
    predictive_entropy,
    reliability_bins,
    roc_auc,
)
from .mlp import MlpModel, kaiming_init, load_model, save_model
from .noise_model import (
    BetaMixtureModel,
    fit_bmm,
    bmm_log_likelihood,
    noisy_posterior,
    normalize_losses,
)
from .trainer import TrainConfig, TrainLog, dataset_from_config, train
from .version import __version__

__all__ = [
    "AnalysisConfig",
    "BetaMixtureModel",
    "ConfigError",
    "Dataset",
    "DistanceRecord",
    "EstimatorConfig",
    "EstimatorOutput",
    "ExperimentConfig",
    "InvalidInputError",
    "LossOutput",
    "MetricsReport",
    "MixbootError",
    "MlpModel",
    "PerturbationPolicy",
    "PredictionBatch",
    "ReferralCurve",
    "ReferralPoint",
    "ReliabilityBins",
    "ThresholdPoint",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergenceError",
    "UndefinedMetricError",
    "UnsupportedShapeError",
    "__version__",
    "accuracy",
    "bmm_log_likelihood",
    "brier_score",
    "bs_loss",
    "bsm_loss",
    "build_dataset",
    "ce_loss",
    "config_hash",
    "dataset_from_config",
    "distance_perception_summary",
    "distance_records",
    "ensemble_predict",
    "expected_calibration_error",
    "fit_bmm",
    "generate_dataset",
    "inject_label_noise",
    "kaiming_init",
    "load_config",
    "load_model",
    "mc_dropout_predict",
    "min_cosine_distance",
    "min_cosine_distances",
    "mixup_batch",
    "mixup_ce_loss",
    "negative_log_likelihood_binary",
    "noisy_posterior",
    "normalize_losses",
    "parse_config",
    "perturb",
    "predictive_entropy",
    "referral_curve",
    "reliability_bins",
    "roc_auc",
    "run_experiment",
    "run_sweep",
    "sample_gamma",
    "save_model",
    "single_forward",
    "spearman",
    "threshold_curve",
    "train",
]
