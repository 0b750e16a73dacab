"""Synthetic binary datasets and symmetric label-noise injection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

GENERATORS = ("two_moons", "blobs")
BLOB_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])


@dataclass
class Dataset:
    """Inputs plus clean and observed labels, tagged train/val per sample.

    Observed labels differ from clean ones exactly on ``flip_indices``
    (global indices, all inside the train split); validation labels are
    never noise-injected.
    """

    inputs: np.ndarray
    clean_labels: np.ndarray
    observed_labels: np.ndarray
    is_train: np.ndarray
    flip_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        diff = np.flatnonzero(self.clean_labels != self.observed_labels)
        if not np.array_equal(diff, np.sort(self.flip_indices)):
            raise InvalidInputError("flip_indices must be exactly the changed labels")
        if len(self.flip_indices) and not self.is_train[self.flip_indices].all():
            raise InvalidInputError("validation labels must never be noise-injected")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[self.is_train]

    @property
    def train_labels(self) -> np.ndarray:
        """Observed (possibly flipped) labels of the train split."""
        return self.observed_labels[self.is_train]

    @property
    def train_flip_mask(self) -> np.ndarray:
        """Per-train-sample flag: was this label flipped."""
        return (self.clean_labels != self.observed_labels)[self.is_train]

    @property
    def val_inputs(self) -> np.ndarray:
        return self.inputs[~self.is_train]

    @property
    def val_labels(self) -> np.ndarray:
        return self.clean_labels[~self.is_train]


def _two_moons(n: int, noise: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    inputs = np.vstack([outer, inner]) + rng.normal(0.0, noise, size=(n, 2))
    labels = np.repeat([0, 1], half)
    return inputs, labels


def _blobs(n: int, noise: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    labels = np.repeat([0, 1], half)
    inputs = BLOB_CENTERS[labels] + rng.normal(0.0, noise, size=(n, 2))
    return inputs, labels


def generate_dataset(
    kind: str,
    n: int,
    generator_noise: float,
    seed,
    n_train: int | None = None,
) -> Dataset:
    """Balanced binary dataset, seeded-shuffled, split train/val (4:1 default)."""
    if kind not in GENERATORS:
        raise InvalidInputError(f"unknown generator {kind!r}; expected one of {GENERATORS}")
    if n < 4 or n % 2 != 0:
        raise InvalidInputError("n must be even and at least 4")
    if n_train is None:
        n_train = (4 * n) // 5
    if not 2 <= n_train <= n - 2:
        raise InvalidInputError("n_train must leave at least 2 samples per split")

    rng = np.random.default_rng(seed)
    maker = _two_moons if kind == "two_moons" else _blobs
    inputs, labels = maker(n, generator_noise, rng)
    order = rng.permutation(n)
    inputs, labels = inputs[order], labels[order]
    is_train = np.zeros(n, dtype=bool)
    is_train[:n_train] = True
    return Dataset(inputs, labels, labels.copy(), is_train)


def inject_label_noise(
    labels: np.ndarray, rate: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Flip floor(rate * N) binary labels chosen uniformly without replacement."""
    if not 0.0 <= rate <= 1.0:
        raise InvalidInputError("noise rate must lie in [0, 1]")
    labels = np.asarray(labels)
    n = len(labels)
    k = int(np.floor(rate * n))
    rng = np.random.default_rng(seed)
    flip = np.sort(rng.permutation(n)[:k])
    flipped = labels.copy()
    flipped[flip] = 1 - flipped[flip]
    return flipped, flip


def build_dataset(
    kind: str,
    n_train: int,
    n_val: int,
    generator_noise: float,
    noise_rate: float,
    seed: int,
) -> Dataset:
    """Generate, split and noise-inject one experiment's data from one seed."""
    ds = generate_dataset(
        kind, n_train + n_val, generator_noise, [seed, 101], n_train=n_train
    )
    if noise_rate > 0.0:
        train_idx = np.flatnonzero(ds.is_train)
        flipped, local_flip = inject_label_noise(
            ds.observed_labels[train_idx], noise_rate, [seed, 102]
        )
        observed = ds.observed_labels.copy()
        observed[train_idx] = flipped
        ds = Dataset(ds.inputs, ds.clean_labels, observed, ds.is_train,
                     flip_indices=train_idx[local_flip])
    return ds
