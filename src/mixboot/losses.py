"""Per-sample classification losses and their gradients w.r.t. logits.

Cross-entropy, hard-bootstrapped cross-entropy, mixup cross-entropy and
the fused bootstrap+mixup loss all reduce to the same core: build an
effective target row t (which sums to 1), then

    value = -t . log_softmax(logits),    grad = softmax(logits) - t.

Bootstrap predictions and mixture weights are treated as constants, so
they never contribute gradient terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError


@dataclass(frozen=True)
class LossOutput:
    """Loss value plus its gradient with respect to the pre-softmax logits."""

    value: float
    grad_logits: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def onehot(label: int, k: int) -> np.ndarray:
    t = np.zeros(k)
    t[label] = 1.0
    return t


def hard_prediction(logits: np.ndarray) -> np.ndarray:
    """One-hot of the predicted class, lowest index winning ties."""
    z = np.asarray(logits, dtype=np.float64)
    return onehot(int(z.argmax()), z.shape[-1])


def loss_from_target(logits: np.ndarray, target: np.ndarray) -> LossOutput:
    """Softmax cross-entropy against an arbitrary constant target row.

    Row 0 of the batch kernel, so a scalar loss and the training loss
    agree bit for bit.
    """
    values, grads = _kernels.loss_from_targets(
        np.asarray(logits, dtype=np.float64)[None],
        np.asarray(target, dtype=np.float64)[None],
    )
    return LossOutput(float(values[0]), grads[0])


def _check_label(label: int, k: int) -> None:
    if not 0 <= label < k:
        raise InvalidInputError(f"label {label} out of range for K = {k}")


def _check_unit(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {x}")


def ce_loss(logits: np.ndarray, label: int) -> LossOutput:
    """Standard cross-entropy: -ln softmax(logits)[label]."""
    z = np.asarray(logits, dtype=np.float64)
    _check_label(label, z.shape[-1])
    return loss_from_target(z, onehot(label, z.shape[-1]))


def bootstrap_target(
    logits: np.ndarray, label: int, w: float, soft: bool = False
) -> np.ndarray:
    """(1 - w) * onehot(label) + w * z, with z the model's own prediction.

    z is the one-hot argmax (hard bootstrapping) by default; ``soft`` swaps
    in the softmax output itself.  Either way z carries no gradient.
    """
    z_row = softmax(logits) if soft else hard_prediction(logits)
    return (1.0 - w) * onehot(label, logits.shape[-1]) + w * z_row


def bs_loss(logits: np.ndarray, label: int, w: float, soft: bool = False) -> LossOutput:
    """Bootstrapped cross-entropy: mixes the label with the model prediction."""
    z = np.asarray(logits, dtype=np.float64)
    _check_label(label, z.shape[-1])
    _check_unit("w", w)
    return loss_from_target(z, bootstrap_target(z, label, w, soft))


def mixup_ce_loss(
    logits: np.ndarray, label_i: int, label_j: int, gamma: float
) -> LossOutput:
    """Convex combination of the two labels' cross-entropies on mixed input."""
    z = np.asarray(logits, dtype=np.float64)
    k = z.shape[-1]
    _check_label(label_i, k)
    _check_label(label_j, k)
    _check_unit("gamma", gamma)
    target = gamma * onehot(label_i, k) + (1.0 - gamma) * onehot(label_j, k)
    return loss_from_target(z, target)


def batch_onehot(labels: np.ndarray, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def batch_mixup_targets(
    labels_i: np.ndarray, labels_j: np.ndarray, gammas: np.ndarray, k: int
) -> np.ndarray:
    """Row-wise mixup targets: gamma * onehot(y_i) + (1 - gamma) * onehot(y_j)."""
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    return g * batch_onehot(labels_i, k) + (1.0 - g) * batch_onehot(labels_j, k)


def batch_bsm_targets(
    logits: np.ndarray,
    labels_i: np.ndarray,
    labels_j: np.ndarray,
    gammas: np.ndarray,
    w_i: np.ndarray,
    w_j: np.ndarray,
    soft: bool = False,
) -> np.ndarray:
    """Vectorized form of the per-sample bsm_loss target construction.

    Row r's bootstrap prediction comes from logits[r] alone, shared by
    both mix partners of that row.
    """
    z = np.asarray(logits, dtype=np.float64)
    k = z.shape[-1]
    z_rows = softmax(z) if soft else batch_onehot(z.argmax(axis=-1), k)
    wi = np.asarray(w_i, dtype=np.float64)[:, None]
    wj = np.asarray(w_j, dtype=np.float64)[:, None]
    t_i = (1.0 - wi) * batch_onehot(labels_i, k) + wi * z_rows
    t_j = (1.0 - wj) * batch_onehot(labels_j, k) + wj * z_rows
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    return g * t_i + (1.0 - g) * t_j


def bsm_loss(
    logits: np.ndarray,
    label_i: int,
    label_j: int,
    gamma: float,
    w_i: float,
    w_j: float,
    soft: bool = False,
) -> LossOutput:
    """Bootstrapped mixup loss on the mixed input's single forward pass.

    Both bootstrap terms share one hard prediction z, because only one
    forward pass on the mixed input exists.
    """
    z = np.asarray(logits, dtype=np.float64)
    k = z.shape[-1]
    _check_label(label_i, k)
    _check_label(label_j, k)
    _check_unit("gamma", gamma)
    _check_unit("w_i", w_i)
    _check_unit("w_j", w_j)
    z_row = softmax(z) if soft else hard_prediction(z)
    t_i = (1.0 - w_i) * onehot(label_i, k) + w_i * z_row
    t_j = (1.0 - w_j) * onehot(label_j, k) + w_j * z_row
    return loss_from_target(z, gamma * t_i + (1.0 - gamma) * t_j)
