"""Uncertainty-producing predictors over trained models.

Every estimator returns the mean of per-pass softmax rows, summed in
pass order by one fold so results do not depend on scheduling; the
uncertainty score, the predictive entropy of those rows, is left to the
caller (``prob_metrics.predictive_entropy``).  MC dropout and TTA draw
their randomness from the seed material they are given, never from a
caller's generator.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .augment import PerturbationPolicy, perturb
from .errors import InvalidInputError
from .losses import softmax
from .jobs import run_jobs, shared_array
from .mlp import MlpModel, dropout_draws, forward, hidden1, hidden_buffers


# MC-dropout passes fork only from this many rows times passes: a 500-row,
# 20-pass estimate ran 2-18 ms slower in two workers than here (2-vCPU VM,
# one BLAS thread), while 1000 rows x 50 passes ran 20 ms faster; the two
# broke even near 20000-24000 row-passes
MC_FORK_MIN_ROW_PASSES = 32768


@dataclass(frozen=True)
class EstimatorOutput:
    """Mean probabilities and, for MC dropout, their per-class variance."""

    mean_probs: np.ndarray
    variance: np.ndarray | None = None


def _fold(results: Iterable[np.ndarray], shape: tuple[int, int]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and mean square of the per-pass probability rows, summed in
    pass order."""
    total = np.zeros(shape)
    total_sq = np.zeros(shape)
    count = 0
    for probs in results:
        total += probs
        total_sq += probs * probs
        count += 1
    return total / count, total_sq / count


def ensemble_predict(models: list[MlpModel], inputs: np.ndarray) -> EstimatorOutput:
    """Arithmetic mean of member probabilities, dropout off.  One member is
    the single-pass estimator."""
    if len(models) < 1:
        raise InvalidInputError("ensemble needs at least one model")
    dims = models[0].dims
    if any(m.dims != dims for m in models):
        raise InvalidInputError("ensemble members must share input/output shapes")
    mean, _ = _fold((softmax(m.predict_logits(inputs)) for m in models),
                    (len(inputs), dims[3]))
    return EstimatorOutput(mean)


def mc_dropout_predict(
    model: MlpModel,
    inputs: np.ndarray,
    passes: int,
    seed: int | list[int],
    tau_inv: float = 0.0,
) -> EstimatorOutput:
    """T stochastic passes with dropout active; mean plus diagonal variance.

    variance = tau_inv + second_moment - mean**2, elementwise.

    ``Generator.random`` takes one PCG64 step per float, so pass p draws
    its masks from ``PCG64(seed)`` advanced by p times a forward's
    ``dropout_draws``: the stream one pass after another would use.  The
    layer-1 activations are computed once; every pass is one
    ``mlp.forward`` from them into the same two buffers.  From
    ``MC_FORK_MIN_ROW_PASSES`` rows times passes the passes run through
    ``run_jobs`` (in forked workers when CPUs allow).  Pass p writes its
    softmax rows into slot p of one passes x N x K ``shared_array`` and
    returns nothing, so a forked pass sends no rows through a pipe; the
    array holds passes x N x K x 8 bytes wherever the passes run.
    """
    if passes < 1:
        raise InvalidInputError("mc_dropout needs passes >= 1")
    if tau_inv < 0.0:
        raise InvalidInputError("tau_inv must be nonnegative")
    x = np.asarray(inputs, dtype=np.float64)
    hidden = hidden1(model, x)
    # allocated before any fork: a worker faults the buffers in once for
    # all its passes, and its slots are the ones this process folds
    a1, a2 = hidden_buffers(model, len(x))
    slots = shared_array((passes, len(x), model.dims[3]))
    draws = dropout_draws(model, len(x))

    def one_pass(p: int) -> None:
        bits = np.random.PCG64(seed)
        bits.advance(p * draws)
        logits = forward(model, x, np.random.Generator(bits), (a1, a2), hidden)[0]
        softmax(logits, out=slots[p])

    run = map if passes * len(x) < MC_FORK_MIN_ROW_PASSES else run_jobs
    list(run(one_pass, range(passes)))
    mean, mean_sq = _fold(slots, slots.shape[1:])
    return EstimatorOutput(mean, tau_inv + mean_sq - mean * mean)


def tta_predict(
    model: MlpModel,
    inputs: np.ndarray,
    policy: PerturbationPolicy,
    repeats: int,
    seed: int | list[int],
) -> EstimatorOutput:
    """Mean probabilities over perturbed copies; repeats=0 means no perturbation.

    With repeats >= 1 the unperturbed input is NOT part of the average.
    The repeats draw from ``default_rng(seed)`` one after another:
    Gaussian draws take a variable number of generator steps, so a repeat
    cannot jump to its place in the stream the way an MC-dropout pass does.
    """
    if repeats < 0:
        raise InvalidInputError("repeats must be nonnegative")
    if repeats == 0:
        return ensemble_predict([model], inputs)
    rng = np.random.default_rng(seed)
    mean, _ = _fold((softmax(model.predict_logits(perturb(inputs, policy, rng)))
                     for _ in range(repeats)), (len(inputs), model.dims[3]))
    return EstimatorOutput(mean)
