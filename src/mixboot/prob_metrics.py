"""Stateless metric kernels over batches of class-probability predictions.

Over a two-class ``PredictionBatch``, which checks the rows and holds
their entropy: expected calibration error with reliability bins, NLL,
Brier score, ROC-AUC with the average ranks behind it, and accuracy.
All functions are pure and safe to call concurrently; sums accumulate in
a fixed order within one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import N_CLASSES
from .errors import InvalidInputError, UndefinedMetricError
from .losses import batch_onehot, fold_classes

ROW_SUM_TOL = 1e-6
LOG_EPS = 1e-12
# the narrowest bin width, 1 / MAX_BINS, is the double 0.001: it lies just
# above 1/1000, so ceil(1 / width) <= MAX_BINS exactly for widths from it
MAX_BINS = 1000


@dataclass
class PredictionBatch:
    """N >= 1 rows of ``data.N_CLASSES`` (2) class probabilities plus N
    integer labels.

    The one check of a prediction set: rows must hold two probabilities
    summing to 1 within 1e-6, every probability must lie in [0, 1], and
    every label must be an integer class index (checked before the labels
    become int64, so a NaN, infinite or fractional label is refused, not
    cast).  Each row's ``uncertainty`` and ``correct`` are computed once,
    on first read.
    """

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        p = self.probs = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise InvalidInputError(f"probs must be N x K, got shape {p.shape}")
        n, k = p.shape
        if k != N_CLASSES:
            raise InvalidInputError(f"rows must hold {N_CLASSES} class probabilities, got {k}")
        if n == 0:
            raise InvalidInputError("a prediction batch needs at least one row")
        # NaN fails both comparisons, so a NaN probability is refused here
        if not ((p >= 0.0) & (p <= 1.0)).all():
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if np.any(np.abs(fold_classes(np.add, p) - 1.0) > ROW_SUM_TOL):
            raise InvalidInputError("every probability row must sum to 1 within 1e-6")
        labels = np.asarray(self.labels)
        if labels.shape != (n,):
            raise InvalidInputError(f"labels must have length {n}, got shape {labels.shape}")
        # NaN fails every comparison and infinity the upper bound
        if not ((labels >= 0) & (labels < k) & (labels == np.floor(labels))).all():
            raise InvalidInputError(f"labels must be integers in 0..{k - 1}")
        self.labels = labels.astype(np.int64, copy=False)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def confidences(self) -> np.ndarray:
        """Per-sample confidence: the maximum class probability."""
        return fold_classes(np.maximum, self.probs)

    def predictions(self) -> np.ndarray:
        """Predicted class per sample, lowest index winning ties."""
        return self.probs.argmax(axis=1)

    @cached_property
    def uncertainty(self) -> np.ndarray:
        """Per-sample predictive entropy, in nats, with 0*ln(0) = 0."""
        p = self.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            return -fold_classes(np.add, np.where(p > 0.0, p * np.log(p), 0.0))

    @cached_property
    def correct(self) -> np.ndarray:
        """Per-sample 1.0 where the prediction hits the label, else 0.0."""
        return (self.predictions() == self.labels).astype(np.float64)


@dataclass
class ReliabilityBins:
    """Per-bin counts, mean confidences and empirical accuracies.

    Bin m covers (edges[m], edges[m + 1]]; a confidence of exactly 0 lands
    in the first bin.  conf_mean/acc are NaN for empty bins.
    """

    counts: np.ndarray
    conf_mean: np.ndarray
    acc: np.ndarray
    edges: np.ndarray = field(repr=False)

    def gaps(self) -> np.ndarray:
        """|conf - acc| per bin, NaN where the bin is empty."""
        return np.abs(self.conf_mean - self.acc)


def reliability_bins(batch: PredictionBatch, bin_width: float = 0.1) -> ReliabilityBins:
    """Bin samples by confidence into at most MAX_BINS (m*w, (m+1)*w] intervals."""
    if not 1.0 / MAX_BINS <= bin_width <= 1.0:
        raise InvalidInputError(f"bin_width must lie in [1/{MAX_BINS}, 1]")
    n_bins = int(np.ceil(1.0 / bin_width))
    edges = np.minimum(bin_width * np.arange(n_bins + 1), 1.0)
    conf = batch.confidences()
    # searchsorted(edges, c, 'left') - 1 realizes the (lo, hi] convention;
    # confidence 0 is pushed into bin 0.
    idx = np.searchsorted(edges, conf, side="left") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=batch.correct, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        conf_mean = conf_sum / counts
        acc = acc_sum / counts
    return ReliabilityBins(counts=counts, conf_mean=conf_mean, acc=acc, edges=edges)


def expected_calibration_error(
    batch: PredictionBatch, bin_width: float = 0.1
) -> tuple[float, ReliabilityBins]:
    """Bin-weighted mean |confidence - accuracy| gap, plus the bins used."""
    bins = reliability_bins(batch, bin_width)
    nonempty = bins.counts > 0
    weights = bins.counts[nonempty] / batch.n
    return float((weights * bins.gaps()[nonempty]).sum()), bins


def negative_log_likelihood_binary(batch: PredictionBatch) -> float:
    """Mean -ln p(true class), probabilities clamped by 1e-12."""
    p_true = batch.probs[np.arange(batch.n), batch.labels]
    p_true = np.clip(p_true, LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.log(p_true).mean())


def brier_score(batch: PredictionBatch) -> float:
    """Mean over samples of K^-1 * sum_k (onehot_k - p_k)^2."""
    sq = (batch_onehot(batch.labels, N_CLASSES) - batch.probs) ** 2
    return float(fold_classes(np.add, sq).mean() / N_CLASSES)


def rank_average(x: np.ndarray) -> np.ndarray:
    """1-based float64 ranks of a 1-D array, tied values sharing their mean rank.

    Equal to ``scipy.stats.rankdata(x, method="average")`` bit for bit,
    including its NaN rule: any NaN in ``x`` makes every rank NaN.
    """
    a = np.asarray(x)
    if a.ndim != 1:
        raise InvalidInputError(f"rank_average expects a 1-D array, got shape {a.shape}")
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    sorter = np.argsort(a, kind="mergesort")
    inv = np.empty(a.size, dtype=np.intp)
    inv[sorter] = np.arange(a.size, dtype=np.intp)
    s = a[sorter]
    first = np.r_[True, s[1:] != s[:-1]]
    dense = first.cumsum()[inv]
    # tie group g (1-based) holds ranks count[g - 1] + 1 .. count[g]; their
    # mean is a half-integer, so the integer sum times 0.5 is exact.
    count = np.r_[np.nonzero(first)[0], a.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney ROC-AUC with average ranks for tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InvalidInputError("scores and labels must be equal-length 1-D arrays")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC-AUC needs both classes present")
    ranks = rank_average(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(batch: PredictionBatch) -> float:
    """Fraction of samples whose argmax probability hits the label."""
    return float(batch.correct.mean())
