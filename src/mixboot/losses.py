"""Target rows for the per-sample classification losses.

Cross-entropy, bootstrapped cross-entropy, mixup cross-entropy and the
fused bootstrap+mixup loss all reduce to the same core: build an
effective target row t (which sums to 1), then

    value = -t . log_softmax(logits),    grad = softmax(logits) - t,

which is ``_kernels.loss_from_targets(logits, targets)``.  The builders
here produce those rows for a whole batch:

* cross-entropy: ``batch_onehot(labels, k)``
* bootstrapped mixup: ``batch_bsm_targets`` on the label halves
  ``label_rows(onehot(y), w)`` of a row and of its mix partner
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


def label_rows(onehot: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The label half ``(1 - w) * onehot(y)`` of bootstrapped target rows,
    for one-hot rows and a column of noise weights ``w``."""
    return (1.0 - w) * onehot


def batch_bsm_targets(
    logits: np.ndarray,
    label_i: np.ndarray,
    label_j: np.ndarray,
    w_i: np.ndarray,
    w_j: np.ndarray,
    gammas: np.ndarray,
    gammas_c: np.ndarray,
    soft: bool = False,
) -> np.ndarray:
    """Row-wise bootstrapped mixup targets on the mixed input's forward pass.

    Row r is gamma * t_i + (1 - gamma) * t_j with
    t = (1 - w) * onehot(y) + w * z, where z is the one-hot argmax of
    logits[r] (lowest index winning ties), or with ``soft`` its softmax.
    Both mix partners of a row share that one z, since only one forward
    pass on the mixed input exists.  Nothing else here reads the logits,
    so the caller passes the rest precomputed: the label halves
    ``label_rows`` of the row and of its partner, the columns ``w_i``,
    ``w_j`` and ``gammas``, and ``gammas_c = 1 - gammas``.
    """
    z = np.asarray(logits, dtype=np.float64)
    z_rows = softmax(z) if soft else batch_onehot(z.argmax(axis=-1), z.shape[-1])
    t_i = label_i + w_i * z_rows
    t_j = label_j + w_j * z_rows
    return gammas * t_i + gammas_c * t_j
