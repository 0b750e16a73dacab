"""Batch mixup and a generic input-perturbation policy.

The perturbation policy is a feature-vector stand-in for image-space
test-time augmentation: per-dimension multiplicative jitter plus additive
isotropic Gaussian noise, both unbiased.  For reference, a conservative
image pipeline in the same spirit would use brightness/hue/saturation/
contrast jitter ~ U(-0.15, 0.15), horizontal flip ~ Bern(0.5), translation
~ U(-22, 22) px, rotation ~ U(-10 deg, 10 deg) and a 224x224 resize; those
image transforms are documentation only and are not implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

GAMMA_EPS = 1e-12
# the largest scale jitter whose draw range, 2 * jitter, is a finite float
MAX_SCALE_JITTER = np.finfo(np.float64).max.item() / 2


@dataclass(frozen=True)
class PerturbationPolicy:
    """Additive noise scale, finite, and multiplicative jitter half-range, at
    most ``MAX_SCALE_JITTER``; both >= 0.

    The all-zero policy is the identity.
    """

    noise_sigma: float = 0.0
    scale_jitter: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.noise_sigma < np.inf
                and 0.0 <= self.scale_jitter <= MAX_SCALE_JITTER):
            raise InvalidInputError("perturbation parameters must be nonnegative, "
                                    "finite and jitter at most MAX_SCALE_JITTER")

    @property
    def is_identity(self) -> bool:
        return self.noise_sigma == 0.0 and self.scale_jitter == 0.0


def beta_from_gammas(draws: np.ndarray) -> np.ndarray:
    """Beta(alpha, alpha) coefficients g1 / (g1 + g2), one per row of an
    (n, 2) array of Gamma(alpha) draws.

    Each ratio is clipped to [GAMMA_EPS, 1 - GAMMA_EPS]; a row whose sum
    underflows to 0 (vanishingly rare for usable alpha) gets 0.5.
    """
    total = draws[:, 0] + draws[:, 1]
    with np.errstate(invalid="ignore"):
        ratio = draws[:, 0] / total
    # np.clip's ufuncs without its Python wrapper; NaN still propagates
    np.maximum(ratio, GAMMA_EPS, out=ratio)
    np.minimum(ratio, 1.0 - GAMMA_EPS, out=ratio)
    return np.where(total == 0.0, 0.5, ratio)


def mixup_batch(
    inputs: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    batch_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mix each row with a partner from its own batch under its own
    coefficient.

    The rows split into consecutive batches of ``batch_size`` (one batch
    if None).  Returns ``(mixed, partners, gammas)`` with
    ``mixed[i] = gammas[i] * inputs[i] + (1 - gammas[i]) * inputs[partners[i]]``,
    where ``partners`` indexes all the rows.  Batch by batch, the
    partners are one permutation of the batch, drawn first, and the
    coefficients come from one ``(m, 2)`` Gamma draw after it
    (``beta_from_gammas``): the stream a call per batch would use.  A
    1-row batch has no partner: it is paired with itself at gamma 1,
    which leaves it unmixed, and nothing is drawn.  The ratios and the
    mixing then run once over all rows.
    """
    if alpha <= 0.0:
        raise InvalidInputError("alpha must be positive")
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0]
    size = n if batch_size is None else batch_size
    partners = np.arange(n)
    draws = np.empty((n, 2))
    for start in range(0, n, size):
        rows = slice(start, start + size)
        if min(size, n - start) > 1:
            # shuffling the batch's own indices in place draws what
            # ``rng.permutation(m)`` draws, and a standard Gamma draw is
            # ``rng.gamma(alpha)`` at scale 1, bit for bit
            rng.shuffle(partners[rows])
            rng.standard_gamma(alpha, out=draws[rows])
    # only the last batch can have one row, unless every batch does
    mixed_rows = 0 if size == 1 else n - (n % size == 1)
    gammas = np.ones(n)
    gammas[:mixed_rows] = beta_from_gammas(draws[:mixed_rows])
    g = gammas.reshape((n,) + (1,) * (x.ndim - 1))
    return g * x + (1.0 - g) * x[partners], partners, gammas


def perturb(
    inputs: np.ndarray, policy: PerturbationPolicy, rng: np.random.Generator
) -> np.ndarray:
    """(inputs * (1 + u)) + n with u ~ U(-jitter, jitter), n ~ N(0, sigma^2).

    Works elementwise on any shape; u is drawn before n so a seeded stream
    reproduces exactly.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if policy.is_identity:
        return x.copy()
    u = rng.uniform(-policy.scale_jitter, policy.scale_jitter, size=x.shape)
    n = rng.normal(0.0, policy.noise_sigma, size=x.shape) if policy.noise_sigma > 0.0 else 0.0
    return x * (1.0 + u) + n
