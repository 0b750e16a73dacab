"""Synthetic binary datasets and symmetric label-noise injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

GENERATORS = ("two_moons", "blobs")
N_CLASSES = 2  # both generators make two balanced classes
BLOB_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])


@dataclass(frozen=True)
class Dataset:
    """The train split with its observed labels and which of them were
    flipped, and the validation split, whose labels are never flipped."""

    train_inputs: np.ndarray
    train_labels: np.ndarray
    train_flip_mask: np.ndarray
    val_inputs: np.ndarray
    val_labels: np.ndarray


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
    """Generate, shuffle, split and noise-inject one experiment's data from
    one seed: the generator noise and the shuffle draw from ``[seed, 101]``,
    the flipped train labels from ``[seed, 102]``."""
    if kind not in GENERATORS:
        raise InvalidInputError(f"unknown generator {kind!r}; expected one of {GENERATORS}")
    n = n_train + n_val
    if n % 2 != 0:
        raise InvalidInputError("n_train + n_val must be even")
    if n_train < 2 or n_val < 2:
        raise InvalidInputError("n_train and n_val must each be >= 2")

    rng = np.random.default_rng([seed, 101])
    maker = _two_moons if kind == "two_moons" else _blobs
    inputs, labels = maker(n, generator_noise, rng)
    order = rng.permutation(n)
    inputs, labels = inputs[order], labels[order]
    train_labels, flips = inject_label_noise(labels[:n_train], noise_rate, [seed, 102])
    flip_mask = np.zeros(n_train, dtype=bool)
    flip_mask[flips] = True
    return Dataset(inputs[:n_train], train_labels, flip_mask,
                   inputs[n_train:], labels[n_train:])
