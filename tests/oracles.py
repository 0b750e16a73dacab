"""Per-batch reference forms of the training step, kept as test oracles.

The package builds every part of a step that no weight feeds once per
epoch: the mixup of all the epoch's rows, the label halves of the
bootstrapped targets and the one-hot rows.  The functions here are the
per-batch forms it replaced, written out as they ran, so the tests can
check that the hoisted forms give the same bits and leave every random
generator in the same state.  ``bsm_targets`` is the one helper that
calls the package: its per-step target builder fed from labels, with
the per-epoch half computed on the spot.  ``reference_softmax`` is the
softmax written with reductions along the class axis, as the package
ran it before it went a class column at a time.
"""

from dataclasses import asdict

import numpy as np

from mixboot import _kernels
from mixboot.augment import GAMMA_EPS, PerturbationPolicy, perturb
from mixboot.data import N_CLASSES
from mixboot.errors import TrainingDivergenceError
from mixboot.losses import batch_bsm_targets, batch_onehot, label_rows, softmax
from mixboot.mlp import adam_init, backward_step, forward, kaiming_init
from mixboot.noise_model import fit_bmm, noisy_posterior, normalize_losses
from mixboot.trainer import (
    _AUGMENT_KEY,
    _DROPOUT_KEY,
    _INIT_KEY,
    _MIXUP_KEY,
    _SHUFFLE_KEY,
    TrainLog,
)


def reference_softmax(logits):
    """Max-subtracted softmax, its max and sum reduced along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_sample_gammas(alpha, n, rng):
    """n Beta(alpha, alpha) draws from one (n, 2) Gamma draw."""
    g = rng.gamma(alpha, size=(n, 2))
    total = g[:, 0] + g[:, 1]
    with np.errstate(invalid="ignore"):
        ratio = g[:, 0] / total
    np.maximum(ratio, GAMMA_EPS, out=ratio)
    np.minimum(ratio, 1.0 - GAMMA_EPS, out=ratio)
    return np.where(total == 0.0, 0.5, ratio)


def reference_mixup_batch(inputs, alpha, rng):
    """One batch's mixup: a permutation, then one (n, 2) Gamma draw; a
    lone row comes back as is, paired with itself at gamma 1."""
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0]
    if n == 1:
        return x, np.zeros(1, dtype=np.intp), np.ones(1)
    partners = rng.permutation(n)
    gammas = reference_sample_gammas(alpha, n, rng)
    g = gammas.reshape((n,) + (1,) * (x.ndim - 1))
    return g * x + (1.0 - g) * x[partners], partners, gammas


def reference_bsm_targets(logits, labels_i, labels_j, gammas, w_i, w_j, soft=False):
    """gamma * t_i + (1 - gamma) * t_j with t = (1 - w) * onehot(y) + w * z,
    every term computed from the labels on each call."""
    z = np.asarray(logits, dtype=np.float64)
    k = z.shape[-1]
    z_rows = softmax(z) if soft else batch_onehot(z.argmax(axis=-1), k)
    wi = np.asarray(w_i, dtype=np.float64)[:, None]
    wj = np.asarray(w_j, dtype=np.float64)[:, None]
    t_i = (1.0 - wi) * batch_onehot(labels_i, k) + wi * z_rows
    t_j = (1.0 - wj) * batch_onehot(labels_j, k) + wj * z_rows
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    return g * t_i + (1.0 - g) * t_j


def bsm_targets(logits, labels_i, labels_j, gammas, w_i, w_j, soft=False):
    """The package's bootstrapped mixup targets, from labels."""
    k = np.shape(logits)[-1]
    wi = np.asarray(w_i, dtype=np.float64)[:, None]
    wj = np.asarray(w_j, dtype=np.float64)[:, None]
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    return batch_bsm_targets(
        logits, label_rows(batch_onehot(labels_i, k), wi),
        label_rows(batch_onehot(labels_j, k), wj), wi, wj, g, 1.0 - g, soft)


def reference_train(config, dataset):
    """The epoch loop with every step built from its own batch: mixup,
    targets and one-hot rows per step, fresh arrays for every forward."""
    x_train = dataset.train_inputs
    y_train = dataset.train_labels
    flip_mask = dataset.train_flip_mask
    n_train, d = x_train.shape
    k = N_CLASSES

    model = kaiming_init((d, config.hidden_1, config.hidden_2, k),
                         seed=[config.seed, _INIT_KEY], dropout=config.dropout)
    adam_state = adam_init(model.flat)
    shuffle_rng = np.random.default_rng([config.seed, _SHUFFLE_KEY])
    dropout_rng = np.random.default_rng([config.seed, _DROPOUT_KEY])
    mixup_rng = np.random.default_rng([config.seed, _MIXUP_KEY])
    augment_rng = np.random.default_rng([config.seed, _AUGMENT_KEY])
    policy = PerturbationPolicy(config.aug_noise_sigma, config.aug_scale_jitter)
    mixes = config.method in ("mixup_ce", "bsm")

    log = TrainLog(method=config.method, seed=config.seed)
    current_w = np.zeros(n_train)
    best_params = model.copy()
    best_acc = -1.0

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * config.lr_decay ** epoch
        w_used = current_w if epoch >= config.warmup_epochs else np.zeros(n_train)
        order = shuffle_rng.permutation(n_train)
        x_epoch, y_epoch, w_epoch = x_train[order], y_train[order], w_used[order]
        batch_losses = []

        for start in range(0, n_train, config.batch_size):
            rows = slice(start, start + config.batch_size)
            x, y = x_epoch[rows], y_epoch[rows]
            if mixes:
                xb, partners, gammas = reference_mixup_batch(x, config.alpha, mixup_rng)
            elif config.method == "ce_aug":
                xb = perturb(x, policy, augment_rng)
            else:
                xb = x
            logits, _, cache = forward(model, xb, dropout_rng)
            if mixes:
                w = w_epoch[rows]
                targets = reference_bsm_targets(logits, y, y[partners], gammas,
                                                w, w[partners], config.soft_bootstrap)
            else:
                targets = batch_onehot(y, k)
            values, grad_logits = _kernels.loss_from_targets(logits, targets)
            if not np.isfinite(values).all():
                raise TrainingDivergenceError(f"non-finite loss at epoch {epoch}")
            batch_losses.append(float(np.add.reduce(values) / len(values)))
            backward_step(model, cache, grad_logits, adam_state, lr, config.weight_decay)

        ce_values, _ = _kernels.loss_from_targets(model.predict_logits(x_train),
                                                  batch_onehot(y_train, k))
        clean_ce = float(ce_values[~flip_mask].mean()) if (~flip_mask).any() else None
        flipped_ce = float(ce_values[flip_mask].mean()) if flip_mask.any() else None
        bmm_entry = None
        if config.method == "bsm":
            normalized = normalize_losses(ce_values)
            bmm = fit_bmm(normalized)
            current_w = noisy_posterior(bmm, normalized)
            bmm_entry = asdict(bmm)
        val_logits = model.predict_logits(dataset.val_inputs)
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
