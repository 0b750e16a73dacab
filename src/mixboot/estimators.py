"""Uncertainty-producing predictors over trained models.

Every estimator returns one N x K array: ``sum(rows) / count`` of its
per-pass softmax rows, added left to right in pass order so results do
not depend on scheduling (the sum's start, 0, changes no bit of a row
with no -0.0 in it, which a softmax never has).  The uncertainty score,
the predictive entropy of those rows, and their correctness belong to
``prob_metrics.PredictionBatch``.
MC dropout and TTA draw their randomness from the seed material they are
given, never from a caller's generator.
"""

from __future__ import annotations

import numpy as np

from .augment import PerturbationPolicy, perturb
from .errors import InvalidInputError
from .losses import softmax
from .jobs import run_jobs, shared_array
from .mlp import MlpModel, dropout_passes


# MC-dropout passes fork only from this many rows times passes: a 500-row,
# 20-pass estimate ran 2-18 ms slower in two workers than here (2-vCPU VM,
# one BLAS thread), while 1000 rows x 50 passes ran 20 ms faster; the two
# broke even near 20000-24000 row-passes
MC_FORK_MIN_ROW_PASSES = 32768


def ensemble_predict(models: list[MlpModel], inputs: np.ndarray) -> np.ndarray:
    """Arithmetic mean of member probabilities, dropout off.  One member is
    the single-pass estimator."""
    if len(models) < 1:
        raise InvalidInputError("ensemble needs at least one model")
    dims = models[0].dims
    if any(m.dims != dims for m in models):
        raise InvalidInputError("ensemble members must share input/output shapes")
    return sum(softmax(m.predict_logits(inputs)) for m in models) / len(models)


def mc_dropout_predict(
    model: MlpModel,
    inputs: np.ndarray,
    passes: int,
    seed: int | list[int],
) -> np.ndarray:
    """Mean probabilities of T passes of ``mlp.dropout_passes``.  From
    ``MC_FORK_MIN_ROW_PASSES`` rows times passes they run through
    ``run_jobs`` (forked when CPUs allow).  Pass p writes its softmax rows
    into slot p of one passes x N x K ``shared_array`` and returns nothing,
    so a forked pass sends no rows through a pipe."""
    if passes < 1:
        raise InvalidInputError("mc_dropout needs passes >= 1")
    # made before any fork: a worker faults the pass buffers in once for
    # all its passes, and its slots are the ones this process sums
    pass_logits = dropout_passes(model, inputs, seed)
    slots = shared_array((passes, len(inputs), model.dims[3]))

    def one_pass(p: int) -> None:
        softmax(pass_logits(p), out=slots[p])

    run = map if passes * len(inputs) < MC_FORK_MIN_ROW_PASSES else run_jobs
    list(run(one_pass, range(passes)))
    return sum(slots) / passes


def tta_predict(
    model: MlpModel,
    inputs: np.ndarray,
    policy: PerturbationPolicy,
    repeats: int,
    seed: int | list[int],
) -> np.ndarray:
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
    return sum(softmax(model.predict_logits(perturb(inputs, policy, rng)))
               for _ in range(repeats)) / repeats
