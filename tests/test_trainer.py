"""Training loop: early stopping, determinism, noise-model feedback."""

from dataclasses import asdict

import numpy as np
import pytest

import mixboot.trainer as trainer_module
from mixboot.errors import ConfigError, TrainingDivergenceError
from mixboot.losses import batch_onehot
from mixboot.mlp import backward_step
from mixboot.noise_model import BetaMixtureModel
from mixboot.trainer import TrainConfig, dataset_from_config, train
from oracles import reference_bsm_targets, reference_train


def blobs_config(**kwargs):
    """Linearly separable fixture that reaches perfect validation accuracy."""
    base = dict(
        method="ce",
        generator="blobs",
        generator_noise=0.0,
        noise_rate=0.0,
        n_train=80,
        n_val=20,
        max_epochs=10,
    )
    base.update(kwargs)
    return TrainConfig(**base)


def moons_config(**kwargs):
    base = dict(
        method="bsm",
        generator="two_moons",
        generator_noise=0.2,
        noise_rate=0.2,
        n_train=200,
        n_val=50,
        max_epochs=4,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="sgd")

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(noise_rate=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=0.0)

    def test_defaults_valid(self):
        TrainConfig()

    def test_bsm_needs_ten_training_rows(self):
        # the Beta-mixture fit needs at least 10 per-sample losses
        with pytest.raises(ConfigError, match="^method = bsm needs n_train >= 10$"):
            TrainConfig(method="bsm", n_train=8, n_val=2)
        TrainConfig(method="bsm", n_train=10, n_val=2)
        TrainConfig(method="mixup_ce", n_train=8, n_val=2)


class TestSeparableFixture:
    def test_reaches_perfect_validation(self):
        config = blobs_config()
        model, log = train(config, dataset_from_config(config))
        assert log.val_accuracy[log.best_epoch] == 1.0
        assert log.best_epoch < 10

    def test_log_lengths_consistent(self):
        config = blobs_config(max_epochs=5)
        _, log = train(config, dataset_from_config(config))
        n = log.stopped_epoch + 1
        assert len(log.train_loss) == n
        assert len(log.val_accuracy) == n
        assert len(log.clean_ce) == n
        assert len(log.flipped_ce) == n
        assert len(log.bmm) == n

    def test_learning_rate_decays_geometrically(self, monkeypatch):
        # every step of epoch e runs at learning_rate * 0.9**e: 80 rows in
        # batches of 32 make three steps an epoch
        lrs = []

        def recording_step(model, cache, grad_logits, state, lr, weight_decay):
            lrs.append(lr)
            backward_step(model, cache, grad_logits, state, lr, weight_decay)

        monkeypatch.setattr(trainer_module, "backward_step", recording_step)
        config = blobs_config(max_epochs=4, lr_decay=0.9)
        train(config, dataset_from_config(config))
        expected = [config.learning_rate * 0.9**e for e in range(4) for _ in range(3)]
        np.testing.assert_allclose(lrs, expected, rtol=1e-12)


class TestEarlyStopping:
    def test_stops_at_best_plus_patience(self):
        # at lr 0.01 the separable fixture is solved from epoch 0 onward, so
        # the first epoch stays best and stopping lands exactly on schedule
        config = blobs_config(max_epochs=40, patience=3, learning_rate=0.01)
        _, log = train(config, dataset_from_config(config))
        assert log.val_accuracy[log.best_epoch] == 1.0
        assert log.best_epoch == 0
        assert log.stopped_epoch == 3

    def test_runs_to_max_epochs_without_trigger(self):
        config = blobs_config(max_epochs=5, patience=20)
        _, log = train(config, dataset_from_config(config))
        assert log.stopped_epoch == 4


class TestDeterminism:
    def test_same_config_bit_identical(self):
        config = moons_config()
        ds = dataset_from_config(config)
        model_a, log_a = train(config, ds)
        model_b, log_b = train(config, ds)
        for pa, pb in zip(model_a.params(), model_b.params()):
            assert (pa == pb).all()
        assert log_a.train_loss == log_b.train_loss
        assert log_a.val_accuracy == log_b.val_accuracy

    def test_warmup_zero_trains_as_one(self):
        # epoch 0 has no fitted mixture before it, so it uses w = 0 either
        # way; a second warmup epoch does change the run
        flats = {}
        for warmup in (0, 1, 2):
            config = moons_config(warmup_epochs=warmup)
            model, _ = train(config, dataset_from_config(config))
            flats[warmup] = model.flat.tobytes()
        assert flats[0] == flats[1]
        assert flats[2] != flats[1]

    def test_seed_changes_trajectory(self):
        config_a = moons_config()
        config_b = moons_config(seed=1)
        _, log_a = train(config_a, dataset_from_config(config_a))
        _, log_b = train(config_b, dataset_from_config(config_b))
        assert log_a.train_loss != log_b.train_loss


class TestMethods:
    @pytest.mark.parametrize("method", ["ce", "ce_aug", "mixup_ce", "bsm"])
    def test_every_method_completes(self, method):
        config = moons_config(method=method, max_epochs=2)
        model, log = train(config, dataset_from_config(config))
        assert log.stopped_epoch == 1
        assert np.isfinite(log.train_loss).all()
        assert model.dims == (2, 64, 64, 2)

    def test_bmm_logged_only_for_bsm(self):
        config_ce = moons_config(method="ce", max_epochs=2)
        _, log_ce = train(config_ce, dataset_from_config(config_ce))
        assert all(entry is None for entry in log_ce.bmm)

        config_bsm = moons_config(max_epochs=2)
        _, log_bsm = train(config_bsm, dataset_from_config(config_bsm))
        assert all(isinstance(entry, dict) for entry in log_bsm.bmm)
        assert {"alpha_1", "pi", "uninformative"} <= set(log_bsm.bmm[0])

    def test_flipped_ce_tracked_separately(self):
        config = moons_config(max_epochs=3)
        _, log = train(config, dataset_from_config(config))
        assert np.isfinite(log.clean_ce).all()
        assert np.isfinite(log.flipped_ce).all()

    def test_no_flips_gives_none_flipped_ce(self):
        config = blobs_config(max_epochs=2)
        _, log = train(config, dataset_from_config(config))
        assert log.flipped_ce == [None, None]
        assert np.isfinite(log.clean_ce).all()

    def test_uninformative_noise_model_run_completes(self, monkeypatch):
        flat = BetaMixtureModel(1.0, 1.0, 1.0, 1.0, 0.5, uninformative=True)
        monkeypatch.setattr(trainer_module, "fit_bmm", lambda losses: flat)
        config = moons_config(max_epochs=3)
        _, log = train(config, dataset_from_config(config))
        assert log.stopped_epoch == 2
        assert all(entry["uninformative"] for entry in log.bmm)


class TestLeftoverBatch:
    """n_train = 100 with batch_size = 33 leaves a 1-row batch every epoch.

    The epoch's ``mixup_batch`` call pairs that row with itself at gamma
    1: it trains unmixed and its target comes from ``batch_bsm_targets``
    like every other batch's.
    """

    @pytest.mark.parametrize("method,soft", [
        ("bsm", True), ("bsm", False), ("mixup_ce", False),
    ])
    def test_leftover_row_targets(self, monkeypatch, method, soft):
        config = moons_config(method=method, soft_bootstrap=soft, n_train=100,
                              batch_size=33, max_epochs=3)
        ds = dataset_from_config(config)
        steps, posteriors, mixups = [], [], []
        mixup_batch = trainer_module.mixup_batch
        forward = trainer_module.forward
        loss_from_targets = trainer_module._kernels.loss_from_targets
        noisy_posterior = trainer_module.noisy_posterior

        def spy_mixup(x, alpha, rng, batch_size):
            mixed, partners, gammas = mixup_batch(x, alpha, rng, batch_size)
            mixups.append((partners, gammas))
            return mixed, partners, gammas

        def spy_forward(model, xb, *args):
            if len(xb) == 1:
                # bsm refits the posterior once per epoch, so for bsm this
                # counts the epochs done so far
                steps.append({"x": xb.copy(), "epoch": len(posteriors)})
            return forward(model, xb, *args)

        def spy_loss(logits, targets):
            if len(logits) == 1:
                steps[-1].update(logits=logits.copy(), targets=targets.copy())
            return loss_from_targets(logits, targets)

        def spy_posterior(model, losses):
            w = noisy_posterior(model, losses)
            posteriors.append(w)
            return w

        monkeypatch.setattr(trainer_module, "mixup_batch", spy_mixup)
        monkeypatch.setattr(trainer_module, "forward", spy_forward)
        monkeypatch.setattr(trainer_module._kernels, "loss_from_targets", spy_loss)
        monkeypatch.setattr(trainer_module, "noisy_posterior", spy_posterior)
        train(config, ds)

        assert len(steps) == len(mixups) == config.max_epochs
        for partners, gammas in mixups:
            # the epoch's last row is its own partner at gamma 1
            assert partners[-1] == 99 and gammas[-1] == 1.0
        for step in steps:
            # the row is a training row, unmixed
            (i,) = np.flatnonzero((ds.train_inputs == step["x"]).all(axis=1))
            y = ds.train_labels[i:i + 1]
            if method == "mixup_ce":
                expected = batch_onehot(y, 2)
            else:
                epoch = step["epoch"]
                w = posteriors[epoch - 1][i:i + 1] if epoch >= 1 else np.zeros(1)
                expected = reference_bsm_targets(step["logits"], y, y, [1.0], w, w, soft)
            assert (step["targets"] == expected).all()


class TestMixupCeTargets:
    @pytest.mark.parametrize("soft", [False, True])
    def test_targets_are_hand_mixup_rows(self, monkeypatch, soft):
        # mixup_ce trains through batch_bsm_targets with w = 0; each row's
        # target must still be gamma * onehot(y_i) + (1 - gamma) * onehot(y_j),
        # with i and j rows of the epoch's one mixup_batch call
        config = moons_config(method="mixup_ce", soft_bootstrap=soft, n_train=100,
                              batch_size=33, max_epochs=3)
        ds = dataset_from_config(config)
        epochs = []
        mixup_batch = trainer_module.mixup_batch
        loss_from_targets = trainer_module._kernels.loss_from_targets

        def spy_mixup(x, alpha, rng, batch_size):
            xb, partners, gammas = mixup_batch(x, alpha, rng, batch_size)
            epochs.append({"x": x.copy(), "partners": partners, "gammas": gammas,
                           "targets": []})
            return xb, partners, gammas

        def spy_loss(logits, targets):
            # the epoch-end per-sample CE takes all 100 rows at once
            if len(logits) <= config.batch_size:
                epochs[-1]["targets"].append(targets.copy())
            return loss_from_targets(logits, targets)

        monkeypatch.setattr(trainer_module, "mixup_batch", spy_mixup)
        monkeypatch.setattr(trainer_module._kernels, "loss_from_targets", spy_loss)
        train(config, ds)

        assert len(epochs) == config.max_epochs
        eye = np.eye(2)
        for epoch in epochs:
            assert [len(t) for t in epoch["targets"]] == [33, 33, 33, 1]
            rows = [np.flatnonzero((ds.train_inputs == r).all(axis=1))[0]
                    for r in epoch["x"]]
            y = ds.train_labels[rows]
            g = epoch["gammas"][:, None]
            expected = g * eye[y] + (1.0 - g) * eye[y[epoch["partners"]]]
            assert (np.concatenate(epoch["targets"]) == expected).all()


class TestDivergence:
    def test_exploding_updates_raise(self):
        # lr*decay >> 1 amplifies parameters geometrically until overflow
        config = moons_config(method="ce", learning_rate=1e12,
                              weight_decay=1e12, max_epochs=5)
        # under the suite's RuntimeWarning filter, a warning would fail this
        with pytest.raises(TrainingDivergenceError):
            train(config, dataset_from_config(config))


class TestMatchesPerStepReference:
    """Building a step's weight-independent parts once per epoch keeps the
    bits of the loop that built them per step (``oracles.reference_train``)."""

    @pytest.mark.parametrize("overrides", [
        dict(method="ce"),
        dict(method="ce_aug", aug_scale_jitter=0.1),
        dict(method="mixup_ce"),
        dict(method="bsm"),
        dict(method="bsm", soft_bootstrap=True),
        dict(method="bsm", n_train=100, batch_size=33),
        dict(method="mixup_ce", n_train=100, batch_size=33, soft_bootstrap=True),
        dict(method="bsm", n_train=100, batch_size=1, max_epochs=2),
        # 1100 = 600 + 500: steps of two row blocks, the last batch narrower
        # than the step buffers
        dict(method="bsm", n_train=1100, batch_size=600),
        dict(method="bsm", warmup_epochs=0),
        dict(method="bsm", warmup_epochs=2),
        dict(method="bsm", dropout=0.0),
        dict(method="ce", dropout=0.0),
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_same_model_bytes_and_log(self, overrides):
        config = moons_config(**overrides)
        self.check(config, dataset_from_config(config))

    def test_early_stop(self):
        config = blobs_config(max_epochs=40, patience=3, learning_rate=0.01)
        log = self.check(config, dataset_from_config(config))
        assert log.stopped_epoch == 3

    @staticmethod
    def check(config, ds):
        model, log = train(config, ds)
        ref_model, ref_log = reference_train(config, ds)
        assert model.flat.tobytes() == ref_model.flat.tobytes()
        assert asdict(log) == asdict(ref_log)
        return log


class TestLogSerialization:
    def test_log_is_json_safe(self):
        import json

        config = blobs_config(max_epochs=2)
        _, log = train(config, dataset_from_config(config))
        payload = asdict(log)
        text = json.dumps(payload)  # NaNs must already be None
        assert "NaN" not in text
        assert payload["flipped_ce"][0] is None
