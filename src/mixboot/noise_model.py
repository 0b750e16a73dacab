"""Two-component Beta mixture over normalized per-sample training losses.

Fit by EM with a moment-matching M-step; the posterior of the higher-mean
("noisy") component supplies the per-sample weight that the bootstrapped
losses consume.  Losses are min-max normalized into the open unit interval
before fitting because the Beta density lives on (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError

NORM_EPS = 1e-4
SHAPE_MIN = 0.01
SHAPE_MAX = 100.0
VAR_FLOOR = 1e-6
DEFAULT_EM_ITERATIONS = 10
MIN_FIT_VALUES = 10


@dataclass(frozen=True)
class BetaMixtureModel:
    """Beta shapes for both components plus the component-1 mixing weight.

    Components are ordered so component 1 has the smaller mean (the "clean"
    one).  ``uninformative`` marks a degenerate fit whose posterior is a
    flat 0.5 everywhere.
    """

    alpha_1: float
    beta_1: float
    alpha_2: float
    beta_2: float
    pi: float
    uninformative: bool = False

    def __post_init__(self):
        if min(self.alpha_1, self.beta_1, self.alpha_2, self.beta_2) <= 0.0:
            raise InvalidInputError("Beta shape parameters must be positive")
        if not 0.0 < self.pi < 1.0:
            raise InvalidInputError("mixing weight must lie in (0, 1)")
        if self.mean_1 > self.mean_2:
            raise InvalidInputError("component 1 must have the smaller mean")

    @property
    def mean_1(self) -> float:
        return self.alpha_1 / (self.alpha_1 + self.beta_1)

    @property
    def mean_2(self) -> float:
        return self.alpha_2 / (self.alpha_2 + self.beta_2)


def normalize_losses(raw: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1], then clamp into [1e-4, 1 - 1e-4].

    A degenerate epoch (all losses equal) maps every sample to 0.5.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.shape[0] < 2:
        raise InvalidInputError("normalize_losses needs at least 2 loss values")
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.full_like(raw, 0.5)
    scaled = (raw - lo) / (hi - lo)
    return np.clip(scaled, NORM_EPS, 1.0 - NORM_EPS)


def _moment_match(x: np.ndarray, resp: np.ndarray) -> tuple[float, float]:
    """Weighted-moment Beta shape estimates, clamped to a stable range.

    The upper clamp rescales both shapes together so the component mean
    alpha/(alpha+beta) survives; only the lower clamp may move it.  ``min``
    keeps the rescaled largest shape from overshooting SHAPE_MAX by an ulp.
    """
    wsum = max(resp.sum(), 1e-12)
    mu = float((resp * x).sum() / wsum)
    var = float((resp * (x - mu) ** 2).sum() / wsum)
    var = max(var, VAR_FLOOR)
    common = max(mu * (1.0 - mu) / var - 1.0, 0.0)
    a = mu * common
    b = (1.0 - mu) * common
    largest = max(a, b)
    if largest > SHAPE_MAX:
        scale = SHAPE_MAX / largest
        a = min(a * scale, SHAPE_MAX)
        b = min(b * scale, SHAPE_MAX)
    return float(max(a, SHAPE_MIN)), float(max(b, SHAPE_MIN))


def _m_step(x: np.ndarray, r1: np.ndarray) -> tuple[float, float, float, float, float]:
    """Both components' moment-matched shapes and the component-1 mixing
    weight from its responsibilities ``r1``, in ``bmm_e_step``'s argument
    order: (a1, b1, a2, b2, pi)."""
    a1, b1 = _moment_match(x, r1)
    a2, b2 = _moment_match(x, 1.0 - r1)
    return a1, b1, a2, b2, float(np.clip(r1.mean(), NORM_EPS, 1.0 - NORM_EPS))


def fit_bmm(
    normalized_losses: np.ndarray, iterations: int = DEFAULT_EM_ITERATIONS
) -> BetaMixtureModel:
    """Fit the two-component mixture by EM with moment-matching M-steps.

    Initialization thresholds the losses at their mean (below -> component 1),
    so the fit is deterministic.
    """
    x = np.asarray(normalized_losses, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < MIN_FIT_VALUES:
        raise InvalidInputError(f"fit_bmm needs at least {MIN_FIT_VALUES} loss values")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise InvalidInputError("normalized losses must lie strictly inside (0, 1)")
    if iterations < 1:
        raise InvalidInputError("iterations must be >= 1")
    if np.all(x == x[0]):
        return BetaMixtureModel(1.0, 1.0, 1.0, 1.0, 0.5, uninformative=True)

    params = _m_step(x, (x < x.mean()).astype(np.float64))
    for _ in range(iterations):
        params = _m_step(x, _kernels.bmm_e_step(x, *params)[0])

    a1, b1, a2, b2, pi = params
    if a1 / (a1 + b1) > a2 / (a2 + b2):
        a1, b1, a2, b2 = a2, b2, a1, b1
        pi = 1.0 - pi
    return BetaMixtureModel(a1, b1, a2, b2, pi)


def noisy_posterior(model: BetaMixtureModel, normalized_losses: np.ndarray) -> np.ndarray:
    """Per-sample posterior probability of the higher-mean component.

    An uninformative model yields 0.5 everywhere.
    """
    x = np.asarray(normalized_losses, dtype=np.float64)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise InvalidInputError("normalized loss must lie strictly inside (0, 1)")
    if model.uninformative:
        return np.full(x.shape, 0.5)
    r1, _ = _kernels.bmm_e_step(
        x, model.alpha_1, model.beta_1, model.alpha_2, model.beta_2, model.pi
    )
    return 1.0 - r1
