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


def fold_classes(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the last (class) axis of ``a``, one call per
    class column, left to right: a numpy reduction along a class axis of
    length 2 costs 20-70 times as much.  A max is exact in any order; a
    sum is numpy's row sum bit for bit up to K = 7 classes, and from K = 8
    numpy sums a row pairwise, so the last bit may differ."""
    acc = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(acc, a[..., j], out=acc)
    return acc


def softmax_parts(logits: np.ndarray, out: np.ndarray | None = None):
    """The stable softmax's max-shifted logits, their exp and its row
    sums, each reduction a ``fold_classes``.  Given ``out`` (a float64
    array of the logits' shape), the shift is written there and the exp
    taken over it in place, so the first two are ``out``."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = np.subtract(z, fold_classes(np.maximum, z)[..., None], out=out)
    e = np.exp(shifted, out=out)
    return shifted, e, fold_classes(np.add, e)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted stable softmax over the last axis, written into
    ``out`` when given: ``softmax_parts`` and one divide."""
    _, e, total = softmax_parts(logits, out)
    return np.divide(e, total[..., None], out=e)


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
