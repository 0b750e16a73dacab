"""The three numeric kernels of training and analysis, in numpy.

* ``loss_from_targets``: per-row softmax cross-entropy against arbitrary
  target rows, with its gradient; the one core behind every loss.
* ``bmm_e_step``: E-step of the two-component Beta mixture over
  normalized losses, giving the per-sample noise posterior.
* ``min_cosine_distances``: min cosine distance of query rows to a
  feature bank given as unit-length rows.

``gammaln``, behind the E-step and the Spearman p-value, is a port of
Cephes ``lgam``, so numpy is the only runtime dependency.

Callers reach them as ``_kernels.<name>`` so a wrapper installed on the
module (a profiler, say) sees every call.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


# ---------------------------------------------------------------------------
# kernel 1: per-row softmax cross-entropy against arbitrary target rows
# ---------------------------------------------------------------------------

def loss_from_targets(logits: np.ndarray, targets: np.ndarray):
    """value_i = -t_i . log_softmax(logits_i); grad_i = softmax(logits_i) - t_i.

    It calls the ufunc reductions directly (``ndarray.max``/``sum`` reach
    them through a Python wrapper) and reuses its temporaries in place;
    the bits are those of the plain expressions.
    """
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = np.add.reduce(e, axis=1, keepdims=True)
    shifted -= np.log(denom)
    shifted *= targets
    values = np.add.reduce(shifted, axis=1)
    np.negative(values, out=values)
    e /= denom
    grads = np.subtract(e, targets, out=e)
    return values, grads


# ---------------------------------------------------------------------------
# kernel 2: E-step of the two-component beta mixture over normalized losses
# ---------------------------------------------------------------------------

# Cephes lgam coefficients: A for the Stirling tail, B/C for the rational
# approximation on [2, 3)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)


def gammaln(x) -> float:
    """ln Gamma(x) for x > 0, Cephes ``lgam`` step for step.

    Equal to ``scipy.special.gammaln`` bit for bit; x <= 0 and NaN raise.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gammaln is defined here for x > 0 only, got {x!r}")
    if x < 13.0:
        # shift x into [2, 3), carrying the product of the steps in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num = reduce(lambda acc, c: acc * x + c, _LGAM_B)
        den = reduce(lambda acc, c: acc * x + c, _LGAM_C[1:], x + _LGAM_C[0])
        return math.log(z) + x * num / den
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + reduce(lambda acc, c: acc * p + c, _LGAM_A) / x


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

# rows of queries, and of bank, per matrix product
BLOCK = 128


def min_cosine_distances(queries: np.ndarray, unit_bank: np.ndarray) -> np.ndarray:
    """1 - max cosine similarity of each query row to any bank row.

    Every row of ``unit_bank`` must have unit length: the caller drops
    zero rows and scales the rest once per distance pass, so ranges of
    one pass share one bank.  A row's value is the bits of its 1-row
    result, whatever rows share its batch and at 1 or 2 BLAS threads; a
    zero-norm query row gives NaN.  The queries go through in
    ``BLOCK``-row blocks copied into one buffer, zero-padded past the
    last row, so every matrix product (GEMM) and norm sees the same
    shapes whatever the batch.  Each product takes ``BLOCK`` bank rows
    against the buffer, ``unit_bank[b:b + BLOCK] @ buf.T``, so its output
    stays ``BLOCK`` x ``BLOCK``.  The queries sit on the product's column
    side: one ``buf @ unit_bank.T`` against a whole bank of, say, 500 rows
    summed the last few bank columns differently by the query's row and
    by the thread count.
    """
    queries = np.asarray(queries, dtype=np.float64)
    n, m = queries.shape[0], unit_bank.shape[0]
    buf = np.zeros((BLOCK, queries.shape[1]))
    sims = np.empty((BLOCK, BLOCK))
    top = np.empty(BLOCK)
    best = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, BLOCK):
            rows = min(BLOCK, n - start)
            buf[:rows] = queries[start:start + rows]
            buf[rows:] = 0.0
            top.fill(-np.inf)
            for b in range(0, m, BLOCK):
                tile = sims[:min(BLOCK, m - b)]
                np.matmul(unit_bank[b:b + BLOCK], buf.T, out=tile)
                np.maximum(top, tile.max(axis=0), out=top)
            norms = np.sqrt(np.einsum("ij,ij->i", buf, buf))
            best[start:start + rows] = top[:rows] / norms[:rows]
    return 1.0 - best
