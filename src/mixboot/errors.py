"""Exception types raised across the package."""


class MixbootError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MixbootError, ValueError):
    """An argument violates a documented precondition (e.g. a prediction
    batch whose rows hold other than two class probabilities)."""


class UndefinedMetricError(MixbootError, ValueError):
    """The metric is undefined for this input (e.g. single-class ROC-AUC)."""


class TrainingDivergenceError(MixbootError, RuntimeError):
    """Training produced a non-finite loss or non-finite activations."""


class ConfigError(MixbootError, ValueError):
    """Experiment config is malformed; message names the offending field."""
