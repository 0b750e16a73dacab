"""Minibatch training of the dropout MLP under four loss regimes.

Regimes: plain cross-entropy (ce), cross-entropy on perturbed inputs
(ce_aug), mixup cross-entropy (mixup_ce), and bootstrapped mixup (bsm).
For bsm, a two-component beta mixture is refit after every epoch on that
epoch's per-sample cross-entropy losses (unmixed inputs, dropout off),
and the resulting noisy-posterior weights drive the next epoch; the first
``warmup_epochs`` epochs use w = 0.  Epoch 0 always does, since no
mixture has been fit before it, so ``warmup_epochs = 0`` trains exactly
as 1.  mixup_ce is bsm with w = 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import _kernels
from .augment import MAX_SCALE_JITTER, PerturbationPolicy, mixup_batch, perturb
from .data import GENERATORS, N_CLASSES, Dataset, build_dataset
from .errors import ConfigError, TrainingDivergenceError
from .losses import batch_bsm_targets, batch_onehot, label_rows
from .mlp import MlpModel, adam_init, backward_step, forward, hidden_buffers, kaiming_init
from .noise_model import MIN_FIT_VALUES, fit_bmm, noisy_posterior, normalize_losses

METHODS = ("ce", "ce_aug", "mixup_ce", "bsm")

# fixed per-purpose rng stream keys, combined with the config seed
_INIT_KEY = 1
_SHUFFLE_KEY = 2
_DROPOUT_KEY = 3
_MIXUP_KEY = 4
_AUGMENT_KEY = 5


@dataclass(frozen=True)
class TrainConfig:
    """Optimization recipe plus the dataset it trains on."""

    method: str = "ce"
    alpha: float = 0.3
    noise_rate: float = 0.0
    learning_rate: float = 5e-4
    lr_decay: float = 0.95
    weight_decay: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 20
    warmup_epochs: int = 1
    seed: int = 0
    generator: str = "two_moons"
    n_train: int = 2000
    n_val: int = 500
    generator_noise: float = 0.2
    hidden_1: int = 64
    hidden_2: int = 64
    dropout: float = 0.2
    soft_bootstrap: bool = False
    aug_noise_sigma: float = 0.1
    aug_scale_jitter: float = 0.0

    def __post_init__(self):
        # an infinite rate, weight or noise passes its bound below and
        # trains to non-finite activations, so it is refused by name
        nonfinite = next((f.name for f in fields(self) if f.type == "float"
                          and not math.isfinite(getattr(self, f.name))), None)
        checks = [
            (nonfinite is None, f"{nonfinite} must be finite"),
            (self.method in METHODS, f"method must be one of {METHODS}"),
            (self.alpha > 0.0, "alpha must be positive"),
            (0.0 <= self.noise_rate <= 1.0, "noise_rate must lie in [0, 1]"),
            (self.learning_rate > 0.0, "learning_rate must be positive"),
            (0.0 < self.lr_decay <= 1.0, "lr_decay must lie in (0, 1]"),
            (self.weight_decay >= 0.0, "weight_decay must be nonnegative"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.max_epochs >= 1, "max_epochs must be >= 1"),
            (self.patience >= 1, "patience must be >= 1"),
            (self.warmup_epochs >= 0, "warmup_epochs must be nonnegative"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.generator in GENERATORS, f"generator must be one of {GENERATORS}"),
            (self.generator_noise >= 0.0, "generator_noise must be nonnegative"),
            (self.n_train >= 2, "n_train must be >= 2"),
            # the Beta-mixture fit takes one loss per training row
            (self.method != "bsm" or self.n_train >= MIN_FIT_VALUES,
             f"method = bsm needs n_train >= {MIN_FIT_VALUES}"),
            (self.n_val >= 2, "n_val must be >= 2"),
            ((self.n_train + self.n_val) % 2 == 0, "n_train + n_val must be even"),
            (self.hidden_1 >= 1 and self.hidden_2 >= 1, "hidden sizes must be >= 1"),
            (0.0 <= self.dropout < 1.0, "dropout must lie in [0, 1)"),
            (self.aug_noise_sigma >= 0.0, "aug_noise_sigma must be nonnegative"),
            (0.0 <= self.aug_scale_jitter <= MAX_SCALE_JITTER,
             f"aug_scale_jitter must lie in [0, {MAX_SCALE_JITTER!r}]"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


@dataclass
class TrainLog:
    """Per-epoch training history; ``dataclasses.asdict`` of it is JSON.

    Nothing derived is stored: epoch e ran at ``learning_rate * lr_decay
    ** e`` and the best accuracy is ``val_accuracy[best_epoch]``.  An
    empty clean or flipped split logs None."""

    method: str
    seed: int
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    clean_ce: list[float | None] = field(default_factory=list)
    flipped_ce: list[float | None] = field(default_factory=list)
    bmm: list[dict | None] = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1


def dataset_from_config(config: TrainConfig) -> Dataset:
    return build_dataset(
        config.generator,
        config.n_train,
        config.n_val,
        config.generator_noise,
        config.noise_rate,
        config.seed,
    )


def _per_sample_ce(model: MlpModel, inputs: np.ndarray, onehot: np.ndarray,
                   buffers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """No-gradient, no-dropout per-sample cross-entropy losses against
    one-hot rows, with the hidden layers in ``buffers``."""
    logits = model.predict_logits(inputs, buffers)
    values, _ = _kernels.loss_from_targets(logits, onehot)
    return values


# a diverging run overflows without a warning: the finiteness checks of
# the loss and of the forward pass raise TrainingDivergenceError instead
@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, dataset: Dataset) -> tuple[MlpModel, TrainLog]:
    """Run the epoch loop and return the best-validation checkpoint + log."""
    x_train = dataset.train_inputs
    y_train = dataset.train_labels
    flip_mask = dataset.train_flip_mask
    n_train = x_train.shape[0]
    k = N_CLASSES
    d = x_train.shape[1]

    model = kaiming_init((d, config.hidden_1, config.hidden_2, k),
                         seed=[config.seed, _INIT_KEY], dropout=config.dropout)
    adam_state = adam_init(model.flat)
    shuffle_rng = np.random.default_rng([config.seed, _SHUFFLE_KEY])
    dropout_rng = np.random.default_rng([config.seed, _DROPOUT_KEY])
    mixup_rng = np.random.default_rng([config.seed, _MIXUP_KEY])
    augment_rng = np.random.default_rng([config.seed, _AUGMENT_KEY])
    policy = PerturbationPolicy(config.aug_noise_sigma, config.aug_scale_jitter)
    # mixup_ce never refits the mixture, so it trains as bsm with w = 0
    mixes = config.method in ("mixup_ce", "bsm")
    onehot_train = batch_onehot(y_train, k)
    # the steps and the epoch-end forwards write their hidden layers here
    step_buffers = hidden_buffers(model, min(config.batch_size, n_train))
    train_buffers = hidden_buffers(model, n_train)
    val_buffers = hidden_buffers(model, len(dataset.val_inputs))

    log = TrainLog(method=config.method, seed=config.seed)
    current_w = np.zeros(n_train)
    best_params = model.copy()
    best_acc = -1.0

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * config.lr_decay ** epoch
        w_used = current_w if epoch >= config.warmup_epochs else np.zeros(n_train)
        order = shuffle_rng.permutation(n_train)
        # everything a step needs that no weight feeds is built here, once
        # per epoch, and each batch takes a slice of it
        x_epoch, onehot_epoch = x_train[order], onehot_train[order]
        if mixes:
            x_epoch, partners, gammas = mixup_batch(
                x_epoch, config.alpha, mixup_rng, config.batch_size)
            w = w_used[order][:, None]
            label = label_rows(onehot_epoch, w)
            g = gammas[:, None]
            # label_i, label_j, w_i, w_j, gammas, 1 - gammas
            pair_rows = (label, label[partners], w, w[partners], g, 1.0 - g)
        batch_losses = []

        for start in range(0, n_train, config.batch_size):
            rows = slice(start, start + config.batch_size)
            xb = x_epoch[rows]
            if config.method == "ce_aug":
                xb = perturb(xb, policy, augment_rng)

            logits, _, cache = forward(model, xb, dropout_rng,
                                       [b[:len(xb)] for b in step_buffers])
            if mixes:
                targets = batch_bsm_targets(
                    logits, *(a[rows] for a in pair_rows), config.soft_bootstrap)
            else:
                targets = onehot_epoch[rows]

            values, grad_logits = _kernels.loss_from_targets(logits, targets)
            if not np.isfinite(values).all():
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}"
                )
            # values.mean(), without ndarray.mean's Python wrapper
            batch_losses.append(float(np.add.reduce(values) / len(values)))
            backward_step(model, cache, grad_logits, adam_state, lr,
                          config.weight_decay)

        # epoch-end bookkeeping on original inputs, dropout off
        ce_values = _per_sample_ce(model, x_train, onehot_train, train_buffers)
        clean_ce = float(ce_values[~flip_mask].mean()) if (~flip_mask).any() else None
        flipped_ce = float(ce_values[flip_mask].mean()) if flip_mask.any() else None

        bmm_entry = None
        if config.method == "bsm":
            normalized = normalize_losses(ce_values)
            bmm = fit_bmm(normalized)
            current_w = noisy_posterior(bmm, normalized)
            bmm_entry = asdict(bmm)

        val_logits = model.predict_logits(dataset.val_inputs, val_buffers)
        val_acc = float((val_logits.argmax(axis=-1) == dataset.val_labels).mean())

        log.train_loss.append(float(np.mean(batch_losses)))
        log.val_accuracy.append(val_acc)
        log.clean_ce.append(clean_ce)
        log.flipped_ce.append(flipped_ce)
        log.bmm.append(bmm_entry)

        if val_acc > best_acc:
            best_acc = val_acc
            best_params = model.copy()
            log.best_epoch = epoch
        log.stopped_epoch = epoch
        if epoch - log.best_epoch >= config.patience:
            break

    return best_params, log
