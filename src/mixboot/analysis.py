"""Decision-referral curves, uncertainty thresholds, feature distances and
rank correlation between similarity and uncertainty."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvalidInputError, UndefinedMetricError
from .jobs import run_jobs, usable_cpus
from .prob_metrics import rank_average, roc_auc

# the distance pass forks only from this many query rows times nonzero
# bank rows: against 2000 bank rows of 64 features (2-vCPU VM, one BLAS
# thread), 1e6 pairs ran 6 ms slower in two workers than here and 40e6
# pairs (eval_wide) 50-55 ms faster; the two broke even near 4e6-6e6
DISTANCE_FORK_MIN_PAIRS = 5_000_000


class ReferralPoint(NamedTuple):
    """Retained-set accuracy and AUC after rejecting the most-uncertain
    fraction; auc is None where fewer than two classes remain, and
    accuracy too where no sample does."""

    rejected_fraction: float
    accuracy: float | None
    auc: float | None
    n_retained: int


class ThresholdPoint(NamedTuple):
    """Accuracy of the samples retained at a threshold; None where none is."""

    threshold: float
    accuracy: float | None
    n_retained: int


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of a 1-D float64 sequence in ascending order,
    NaN (one of them) last: ``np.unique``'s result, signed zeros included.

    ``np.unique`` calls ``np.ma.is_masked``, so its first call imports
    ``numpy.ma``: 12-14 ms and 1.7 MB of peak memory per run on a 2-vCPU
    VM (numpy 2.4).
    """
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    # NaNs sort last and compare unequal to each other: only the first stays
    first = np.r_[True, (v[1:] != v[:-1]) & ~np.isnan(v[:-1])]
    return v[first[:v.size]]


def _check_fractions(fractions) -> np.ndarray:
    f = _sorted_unique(fractions)
    if f.size == 0:
        raise InvalidInputError("fractions must be nonempty")
    if f.min() < 0.0 or f.max() >= 1.0:
        raise InvalidInputError("fractions must lie in [0, 1)")
    return f


def referral_curve(
    uncertainties: np.ndarray,
    correctness: np.ndarray,
    scores: np.ndarray,
    fractions,
    labels: np.ndarray,
) -> list[ReferralPoint]:
    """Reject the ceil(f*N) most-uncertain samples per fraction f.

    Ties in uncertainty are broken by sample index.  ``scores`` are binary
    positive-class probabilities used with ``labels`` for the retained-set
    ROC-AUC.  A fraction that rejects every sample keeps its point, with
    ``n_retained`` 0.
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    c = np.asarray(correctness, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if not (len(u) == len(c) == len(s) == len(y)) or len(u) == 0:
        raise InvalidInputError("uncertainties, correctness, scores, labels must match")
    fracs = _check_fractions(fractions)

    order = np.argsort(-u, kind="stable")  # most uncertain first, index ties
    n = len(u)
    points = []
    for f in fracs:
        n_reject = int(math.ceil(f * n))
        # in rejection order: a mean of 0/1 values and a sum of half-integer
        # ranks are exact in any order
        retained = order[n_reject:]
        acc = float(c[retained].mean()) if retained.size else None
        try:
            auc = roc_auc(s[retained], y[retained])
        except UndefinedMetricError:
            auc = None
        points.append(ReferralPoint(float(f), acc, auc, int(retained.size)))
    return points


def threshold_curve(
    uncertainties: np.ndarray, correctness: np.ndarray, thresholds
) -> list[ThresholdPoint]:
    """Retain samples with uncertainty <= t for each threshold t; a
    threshold below every uncertainty keeps its point, with ``n_retained``
    0."""
    u = np.asarray(uncertainties, dtype=np.float64)
    c = np.asarray(correctness, dtype=np.float64)
    if len(u) != len(c) or len(u) == 0:
        raise InvalidInputError("uncertainties and correctness must match")
    out = []
    for t in _sorted_unique(thresholds):
        keep = u <= t
        acc = float(c[keep].mean()) if keep.any() else None
        out.append(ThresholdPoint(float(t), acc, int(keep.sum())))
    return out


def distance_records(queries: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """1 - max cosine similarity of each query row to any nonzero bank row.

    A zero-norm query has no direction and yields NaN.  The bank's row
    norms are taken once: they drop its zero rows and scale the rest to
    the unit rows the kernel takes.  Each row's value is the same bits
    whatever other rows are in the batch, so from
    ``DISTANCE_FORK_MIN_PAIRS`` query rows times bank rows the queries
    are split into one contiguous range of whole ``_kernels.BLOCK``-row
    blocks per usable CPU, and the ranges run through ``run_jobs``.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise InvalidInputError("queries must be an N x H array")
    bank = np.asarray(bank, dtype=np.float64)
    if bank.ndim != 2 or bank.shape[0] == 0:
        raise InvalidInputError("bank must be a nonempty M x H array")
    norms = np.linalg.norm(bank, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    if not nonzero.any():
        raise InvalidInputError("bank has no nonzero row")
    unit = bank[nonzero] / norms[nonzero]
    if len(q) * len(unit) < DISTANCE_FORK_MIN_PAIRS:
        return _kernels.min_cosine_distances(q, unit)
    step = _kernels.BLOCK * -(-len(q) // (_kernels.BLOCK * usable_cpus()))
    return np.concatenate(run_jobs(
        lambda rows: _kernels.min_cosine_distances(q[rows], unit),
        [slice(s, s + step) for s in range(0, len(q), step)]))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    am = a - a.mean()
    bm = b - b.mean()
    return float((am * bm).sum() / np.sqrt((am * am).sum() * (bm * bm).sum()))


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), by its Stirling series above a = 10.

    At a = 1e4 the difference of two ``gammaln`` values (8e4 each) would
    cost 5e-11 relative error in the p-value.
    """
    if a <= 10.0:
        return _kernels.gammaln(a + 0.5) - _kernels.gammaln(a)
    z = 1.0 / (a * a)
    series = 1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * z) * z) * z) * z
    return 0.5 * math.log(a) - series / a


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by modified Lentz.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times this; it converges fast
    for x < (a + 1) / (a + b + 2).
    """
    def nonzero(v):
        return v if abs(v) > 1e-300 else 1e-300

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def t_two_tailed_p(t: float, df: int) -> float:
    """2 P(T > |t|) for Student's t with df degrees of freedom.

    This is I_x(df/2, 1/2), x = df/(df + t^2), with ln x and 1 - x
    computed from t^2 and df rather than from the rounded x; for t^2
    below about 3 it is 1 - I_{1-x}(1/2, df/2).  An infinite t, or one
    whose square overflows, has p = 0.
    """
    if math.isnan(t):
        raise InvalidInputError(f"t must be a number, got {t!r}")
    if not df >= 1:
        raise InvalidInputError(f"df must be >= 1, got {df!r}")
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if t2 == math.inf:
        return 0.0
    a = 0.5 * df
    x = df / (df + t2)
    one_minus_x = t2 / (df + t2)
    # ln of x^a (1-x)^(1/2) / B(a, 1/2), with ln Gamma(1/2) = ln(pi)/2
    log_front = (-a * math.log1p(t2 / df) + 0.5 * math.log(one_minus_x)
                 + _log_gamma_half_ratio(a) - 0.5 * math.log(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(log_front) / a * _beta_continued_fraction(a, 0.5, x)
    return 1.0 - 2.0 * math.exp(log_front) * _beta_continued_fraction(0.5, a, one_minus_x)


def spearman(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Rank correlation with average ranks for ties, plus a two-tailed p.

    The p-value uses the t approximation t = rho*sqrt((N-2)/(1-rho^2))
    with N-2 degrees of freedom.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or len(xa) != len(ya):
        raise InvalidInputError("x and y must be equal-length 1-D arrays")
    n = len(xa)
    if n < 3:
        raise InvalidInputError("spearman needs at least 3 samples")
    if np.isnan(xa).any() or np.isnan(ya).any():
        raise UndefinedMetricError("correlation undefined with a NaN input")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedMetricError("correlation undefined for a constant vector")
    xr, yr = rank_average(xa), rank_average(ya)
    rho = _pearson(xr, yr)
    if abs(rho) >= 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, t_two_tailed_p(t, n - 2)


def distance_perception_summary(
    distances: np.ndarray, uncertainties: np.ndarray
) -> dict:
    """Spearman of uncertainty vs. similarity (1 - distance).

    The correlation with the distance itself is this rho negated, with the
    same p, so it is not reported twice.

    Samples with a NaN distance (zero-norm features) are dropped first:
    ``n`` counts the finite distances and ``n_dropped`` the others.  Where
    the correlation is undefined (fewer than 3 finite distances, a
    constant vector or a NaN uncertainty), a ``degenerate`` reason stands in for
    ``rho_similarity`` and ``p_similarity``.
    """
    d = np.asarray(distances, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    ok = np.isfinite(d)
    d, u = d[ok], u[ok]
    summary = {"n": len(d), "n_dropped": int((~ok).sum())}
    if len(d) < 3:
        return {**summary, "degenerate":
                f"correlation needs at least 3 finite distances, got {len(d)}"}
    try:
        rho_sim, p_sim = spearman(1.0 - d, u)
    except UndefinedMetricError as exc:
        return {**summary, "degenerate": str(exc)}
    return {**summary, "rho_similarity": rho_sim, "p_similarity": p_sim}
