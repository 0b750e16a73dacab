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
from .jobs import run_jobs
from .mlp import MlpModel, dropout_draws
from .prob_metrics import predictive_entropy


# MC-dropout passes fork only from this many rows times passes: a 500-row,
# 20-pass estimate ran 7 ms slower in two workers than here (2-vCPU VM),
# while 1000 rows x 50 passes ran 15 ms faster
MC_FORK_MIN_ROW_PASSES = 32768


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


def _pcg64_at(state: dict, steps: int) -> np.random.PCG64:
    """A PCG64 ``steps`` 64-bit outputs past ``state``.  ``advance`` drops
    the buffered 32-bit half, which float draws never touch; it is kept."""
    bits = np.random.PCG64()
    bits.state = state
    bits.advance(steps)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
    return bits


def mc_dropout_predict(
    model: MlpModel,
    inputs: np.ndarray,
    passes: int,
    tau_inv: float = 0.0,
    rng: np.random.Generator | None = None,
) -> EstimatorOutput:
    """T stochastic passes with dropout active; mean plus diagonal variance.

    variance = tau_inv + second_moment - mean**2, elementwise.

    ``rng.random`` takes one PCG64 step per float, so pass p draws its
    masks from the caller's stream advanced by p times a forward's
    ``dropout_draws``.  From ``MC_FORK_MIN_ROW_PASSES`` rows times passes
    the passes run through ``run_jobs`` (in forked workers when CPUs
    allow); either way they are summed in pass order and leave ``rng``
    where running them one after another would, with the same bits.
    """
    if passes < 1:
        raise InvalidInputError("mc_dropout needs passes >= 1")
    if tau_inv < 0.0:
        raise InvalidInputError("tau_inv must be nonnegative")
    if model.dropout > 0.0 and rng is None:
        raise InvalidInputError("mc_dropout with a positive rate requires an rng")
    if rng is not None and not isinstance(getattr(rng, "bit_generator", None),
                                          np.random.PCG64):
        raise InvalidInputError("mc_dropout needs a PCG64 generator "
                                "(numpy.random.default_rng)")
    draws = dropout_draws(model, len(inputs))
    start = None if rng is None else rng.bit_generator.state

    def one_pass(p: int) -> np.ndarray:
        pass_rng = None if start is None else np.random.Generator(_pcg64_at(start, p * draws))
        return softmax(model.predict_logits(inputs, dropout_active=True, rng=pass_rng))

    total = np.zeros((len(inputs), model.dims[3]))
    total_sq = np.zeros_like(total)
    if passes * len(inputs) < MC_FORK_MIN_ROW_PASSES:
        results = map(one_pass, range(passes))
    else:
        results = run_jobs(one_pass, range(passes))
    for probs in results:
        if isinstance(probs, Exception):
            raise probs
        total += probs
        total_sq += probs * probs
    if rng is not None:
        rng.bit_generator.state = _pcg64_at(start, passes * draws).state
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
    The repeats run one after another: Gaussian draws take a variable
    number of generator steps, so a repeat cannot jump to its place in
    the stream the way an MC-dropout pass does.
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
