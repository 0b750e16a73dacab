"""Uncertainty-producing predictors over trained models.

Every estimator returns class-probability rows plus a per-sample
uncertainty, defined as the predictive entropy of the (mean) probability
row.  Aggregation always accumulates in fixed member/pass index order so
results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import PerturbationPolicy, perturb
from .errors import InvalidInputError
from .losses import softmax
from .mlp import MlpModel
from .prob_metrics import predictive_entropy


@dataclass(frozen=True)
class EstimatorOutput:
    """Mean probabilities, their per-row entropy, optional per-class variance."""

    mean_probs: np.ndarray
    uncertainty: np.ndarray
    variance: np.ndarray | None = None


def single_forward(model: MlpModel, inputs: np.ndarray) -> EstimatorOutput:
    """One deterministic pass, dropout off."""
    probs = softmax(model.predict_logits(inputs))
    return EstimatorOutput(probs, predictive_entropy(probs))


def ensemble_predict(models: list[MlpModel], inputs: np.ndarray) -> EstimatorOutput:
    """Arithmetic mean of member probabilities; entropy of the mean."""
    if len(models) < 1:
        raise InvalidInputError("ensemble needs at least one model")
    dims = models[0].dims
    if any(m.dims != dims for m in models):
        raise InvalidInputError("ensemble members must share input/output shapes")
    total = np.zeros((len(inputs), dims[3]))
    for m in models:
        total += softmax(m.predict_logits(inputs))
    mean = total / len(models)
    return EstimatorOutput(mean, predictive_entropy(mean))


def mc_dropout_predict(
    model: MlpModel,
    inputs: np.ndarray,
    passes: int,
    tau_inv: float = 0.0,
    rng: np.random.Generator | None = None,
) -> EstimatorOutput:
    """T stochastic passes with dropout active; mean plus diagonal variance.

    variance = tau_inv + second_moment - mean**2, elementwise.
    """
    if passes < 1:
        raise InvalidInputError("mc_dropout needs passes >= 1")
    if tau_inv < 0.0:
        raise InvalidInputError("tau_inv must be nonnegative")
    if model.dropout > 0.0 and rng is None:
        raise InvalidInputError("mc_dropout with a positive rate requires an rng")
    total = np.zeros((len(inputs), model.dims[3]))
    total_sq = np.zeros_like(total)
    for _ in range(passes):
        probs = softmax(model.predict_logits(inputs, dropout_active=True, rng=rng))
        total += probs
        total_sq += probs * probs
    mean = total / passes
    variance = tau_inv + total_sq / passes - mean * mean
    return EstimatorOutput(mean, predictive_entropy(mean), variance)


def tta_predict(
    model: MlpModel,
    inputs: np.ndarray,
    policy: PerturbationPolicy,
    repeats: int,
    rng: np.random.Generator | None = None,
) -> EstimatorOutput:
    """Mean probabilities over perturbed copies; repeats=0 means no perturbation.

    With repeats >= 1 the unperturbed input is NOT part of the average.
    """
    if repeats < 0:
        raise InvalidInputError("repeats must be nonnegative")
    if repeats == 0:
        return single_forward(model, inputs)
    if not policy.is_identity and rng is None:
        raise InvalidInputError("a non-identity policy requires an rng")
    total = np.zeros((len(inputs), model.dims[3]))
    for _ in range(repeats):
        total += softmax(model.predict_logits(perturb(inputs, policy, rng)))
    mean = total / repeats
    return EstimatorOutput(mean, predictive_entropy(mean))
