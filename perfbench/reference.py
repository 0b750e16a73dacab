"""Fixed loops of numpy and interpreter work that time the machine itself.

Each child runs ``loop_s`` right before and right after its measured
work, on the CPU and in the process that does that work, and run.py
divides the child's run time by the mean of what the loop took there
(see "scaled to a reference machine speed" in run.py).  A loop uses
only numpy and constant inputs, so no change to mixboot moves it.  There
are two, shaped like the work that dominates a workload, because a busy
host need not slow cache-resident and memory-bound work alike:

narrow
    32-row products and reductions driven from Python, with dict and
    list churn, on cache-resident arrays: the shape of a training step.
wide
    dropout forward passes over 20000 rows and one 2000 x 2000 cosine
    product: the shape of MC-dropout estimation and distance analysis.
"""

from __future__ import annotations

import time

import numpy as np

# What one loop takes at the speed scaled times are given in: about its
# median on a 2-vCPU Xeon VM at 2.0 GHz with one BLAS thread.
NOMINAL_S = {"narrow": 0.35, "wide": 0.35}


def _narrow(rng: np.random.Generator) -> float:
    x, w = rng.standard_normal((32, 64)), rng.standard_normal((64, 64))
    v = rng.standard_normal(1 << 13)  # heap-sized: leaves malloc's mmap threshold alone
    acc = 0.0
    for i in range(7500):
        h = np.maximum(x @ w, 0.0)
        acc += float((h.T @ x)[0, 0])
        row = {k: k * 0.5 for k in range(16)}
        acc += sum(row.values()) + len([str(i)] * 4)
    for _ in range(3800):
        acc += float(np.exp(np.tanh(v)).sum())
    return acc


def _wide(rng: np.random.Generator) -> float:
    x = rng.standard_normal((20000, 2))
    w1, w2 = rng.standard_normal((2, 64)), rng.standard_normal((64, 64))
    w3 = rng.standard_normal((64, 2))
    total = np.zeros((20000, 2))
    for _ in range(8):
        h1 = np.maximum(x @ w1, 0.0) * (rng.random((20000, 64)) >= 0.2)
        h2 = np.maximum(h1 @ w2, 0.0) * (rng.random((20000, 64)) >= 0.2)
        logits = h2 @ w3
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        total += e / e.sum(axis=1, keepdims=True)
    q = h2[:2000] / (np.linalg.norm(h2[:2000], axis=1, keepdims=True) + 1.0)
    b = h1[2000:4000] / (np.linalg.norm(h1[2000:4000], axis=1, keepdims=True) + 1.0)
    return float(total.sum() + (q @ b.T).max(axis=1).sum())


LOOPS = {"narrow": _narrow, "wide": _wide}


def loop_s(kind: str) -> float:
    """Seconds one pass of the ``kind`` loop takes right now."""
    rng = np.random.default_rng(20190601)
    t0 = time.perf_counter()
    acc = LOOPS[kind](rng)
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the result live; these inputs cannot give NaN
        raise RuntimeError("reference loop produced NaN")
    return elapsed
