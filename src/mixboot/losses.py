"""Target rows for the per-sample classification losses.

Cross-entropy, bootstrapped cross-entropy, mixup cross-entropy and the
fused bootstrap+mixup loss all reduce to the same core: build an
effective target row t (which sums to 1), then

    value = -t . log_softmax(logits),    grad = softmax(logits) - t,

which is ``_kernels.loss_from_targets(logits, targets)``.  The builders
here produce those rows for a whole batch:

* cross-entropy: ``batch_onehot(labels, k)``
* bootstrapped mixup: ``batch_bsm_targets``
* mixup cross-entropy: ``batch_bsm_targets`` with w = 0, whose rows are
  exactly gamma * onehot(y_i) + (1 - gamma) * onehot(y_j)
* bootstrapped cross-entropy: ``batch_bsm_targets`` with each row paired
  with itself at gamma 1

Bootstrap predictions and mixture weights are treated as constants, so
they never contribute gradient terms.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def batch_onehot(labels: np.ndarray, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def batch_bsm_targets(
    logits: np.ndarray,
    labels_i: np.ndarray,
    labels_j: np.ndarray,
    gammas: np.ndarray,
    w_i: np.ndarray,
    w_j: np.ndarray,
    soft: bool = False,
) -> np.ndarray:
    """Row-wise bootstrapped mixup targets on the mixed input's forward pass.

    Row r is gamma * t_i + (1 - gamma) * t_j with
    t = (1 - w) * onehot(y) + w * z, where z is the one-hot argmax of
    logits[r] (lowest index winning ties), or with ``soft`` its softmax.
    Both mix partners of a row share that one z, since only one forward
    pass on the mixed input exists.
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
