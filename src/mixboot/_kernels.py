"""The three numeric kernels of training and analysis, in numpy.

* ``loss_from_targets``: per-row softmax cross-entropy against arbitrary
  target rows, with its gradient; the one core behind every loss.
* ``bmm_e_step``: E-step of the two-component Beta mixture over
  normalized losses, giving the per-sample noise posterior.
* ``min_cosine_distances``: min cosine distance of query rows to a
  feature bank.

Callers reach them as ``_kernels.<name>`` so a wrapper installed on the
module (a profiler, say) sees every call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


# ---------------------------------------------------------------------------
# kernel 1: per-row softmax cross-entropy against arbitrary target rows
# ---------------------------------------------------------------------------

def loss_from_targets(logits: np.ndarray, targets: np.ndarray):
    """value_i = -t_i . log_softmax(logits_i); grad_i = softmax(logits_i) - t_i."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, keepdims=True)
    logp = shifted - np.log(denom)
    values = -(targets * logp).sum(axis=1)
    grads = e / denom - targets
    return values, grads


# ---------------------------------------------------------------------------
# kernel 2: E-step of the two-component beta mixture over normalized losses
# ---------------------------------------------------------------------------

def log_beta(a, b):
    """ln B(a, b), the log normalizer of the Beta(a, b) density."""
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def bmm_e_step(x, a1, b1, a2, b2, pi):
    """Responsibilities of component 1 and the observed-data log-likelihood."""
    ln_b1 = log_beta(a1, b1)
    ln_b2 = log_beta(a2, b2)
    lx = np.log(x)
    l1x = np.log1p(-x)
    w1 = math.log(pi) + (a1 - 1.0) * lx + (b1 - 1.0) * l1x - ln_b1
    w2 = math.log1p(-pi) + (a2 - 1.0) * lx + (b2 - 1.0) * l1x - ln_b2
    m = np.maximum(w1, w2)
    lse = m + np.log(np.exp(w1 - m) + np.exp(w2 - m))
    return np.exp(w1 - lse), float(lse.sum())


# ---------------------------------------------------------------------------
# kernel 3: min cosine distance of each query row to a feature bank
# ---------------------------------------------------------------------------

def min_cosine_distances(queries: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """1 - max cosine similarity of each query row to any bank row.

    Each row's value equals the 1-row result for that row bit for bit,
    whatever other rows share its batch, zero-norm rows included (a
    zero-norm row itself gives NaN): every row goes through the same
    calls, one ``bn @ q_i`` matrix-vector product and its own norm.  A
    single ``qn @ bn.T`` would not hold this, since BLAS sums a 1-row
    product (GEMV) and a many-row product (GEMM) in different orders.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    bn = bank / np.linalg.norm(bank, axis=1, keepdims=True)
    best = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        best[i] = (bn @ q).max() / math.sqrt(q @ q)
    return 1.0 - best


