"""Manually backpropagated MLP: init, forward, gradients, Adam, serialization."""

import copy
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mixboot.trainer as trainer_module
from mixboot.errors import InvalidInputError, TrainingDivergenceError
from mixboot.losses import batch_onehot, softmax
from mixboot.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MODEL_FORMAT_HEADER,
    PARAM_NAMES,
    PASS_ROW_BLOCK,
    MlpModel,
    adam_init,
    adam_step,
    backward,
    backward_step,
    dropout_draws,
    dropout_pass,
    forward,
    hidden1,
    kaiming_init,
    load_model,
    param_count,
    save_model,
    split_flat,
)
from mixboot.trainer import TrainConfig, dataset_from_config, train


def ce_batch_value(model, inputs, labels):
    logits, _, _ = forward(model, inputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def reference_forward(model, inputs, dropout_active=False, rng=None):
    """Reference: the out-of-place forward, one fresh array per step, with
    the mask built by ``astype`` and a division.  Returns (logits, [a1, a2],
    masks); a2 is the feature matrix."""
    x = np.asarray(inputs, dtype=np.float64)
    rate = model.dropout
    use_dropout = dropout_active and rate > 0.0
    acts, masks = [], []
    a = x
    for w, b in ((model.w1, model.b1), (model.w2, model.b2)):
        a = np.maximum(a @ w + b, 0.0)
        if use_dropout:
            masks.append((rng.random(a.shape) >= rate).astype(np.float64) / (1.0 - rate))
            a = a * masks[-1]
        acts.append(a)
    return a @ model.w3 + model.b3, acts, masks


def loop_backward(model, cache, grad_logits, masks=None):
    """Reference: six separately allocated gradient arrays, in params() order.

    Each hidden gradient is multiplied by the dropout mask, then by a ReLU
    gate on the pre-activations, rebuilt here from the cached input and
    layer-1 activations.  ``masks`` are those ``reference_forward`` draws
    from the forward's seed ([] with dropout off); by default they are
    rebuilt from the cache, ``cache.scale`` where a unit is active and 0
    elsewhere, which is the drawn mask wherever the gate is open.
    """
    if masks is None:
        masks = [np.where(a > 0.0, cache.scale, 0.0) for a in (cache.a1, cache.a2)]
    mask1, mask2 = masks or (None, None)
    z1 = cache.x @ model.w1 + model.b1
    z2 = cache.a1 @ model.w2 + model.b2
    g = np.asarray(grad_logits, dtype=np.float64)
    n = g.shape[0]
    dw3 = cache.a2.T @ g / n
    db3 = g.mean(axis=0)
    da2 = g @ model.w3.T
    if mask2 is not None:
        da2 = da2 * mask2
    dz2 = da2 * (z2 > 0.0)
    dw2 = cache.a1.T @ dz2 / n
    db2 = dz2.mean(axis=0)
    da1 = dz2 @ model.w2.T
    if mask1 is not None:
        da1 = da1 * mask1
    dz1 = da1 * (z1 > 0.0)
    dw1 = cache.x.T @ dz1 / n
    db1 = dz1.mean(axis=0)
    return [dw1, db1, dw2, db2, dw3, db3]


def loop_adam_step(params, grads, ms, vs, t, lr, weight_decay=0.0):
    """Reference: Adam as one pass per parameter array (step number t)."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, ms, vs):
        if weight_decay != 0.0:
            p -= lr * weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def loop_backward_step(model, cache, grad_logits, adam_state, lr, weight_decay=0.0):
    """Reference for backward_step: per-array gradients and per-array Adam."""
    adam_state.t += 1
    loop_adam_step(
        model.params(), loop_backward(model, cache, grad_logits),
        split_flat(adam_state.m, model.dims), split_flat(adam_state.v, model.dims),
        adam_state.t, lr, weight_decay,
    )


def per_value_model_text(model):
    """Reference for save_model: one ``repr(float(v))`` per value."""
    d, h1, h2, k = model.dims
    lines = [MODEL_FORMAT_HEADER, f"dims {d} {h1} {h2} {k}", f"dropout {model.dropout!r}"]
    for name, p in zip(PARAM_NAMES, model.params()):
        lines.append(f"param {name} " + " ".join(str(s) for s in p.shape))
        for row in (p if p.ndim == 2 else p[None, :]):
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def assert_views_of_flat(model):
    assert model.flat.flags.c_contiguous and model.flat.dtype == np.float64
    assert sum(p.size for p in model.params()) == model.flat.size
    for p in model.params():
        assert np.shares_memory(p, model.flat)


class TestKaimingInit:
    def test_weight_variance_matches_fan_in(self):
        model = kaiming_init((64, 64, 64, 2), seed=0)
        # 64*64 entries give the statistical check enough resolution
        for w, fan_in in ((model.w1, 64), (model.w2, 64)):
            target = 2.0 / fan_in
            assert abs(w.var() - target) <= 0.2 * target

    def test_biases_zero(self):
        model = kaiming_init((3, 8, 8, 2), seed=1)
        for b in (model.b1, model.b2, model.b3):
            assert (b == 0.0).all()

    def test_same_seed_bit_identical(self):
        a = kaiming_init((4, 16, 16, 3), seed=7)
        b = kaiming_init((4, 16, 16, 3), seed=7)
        for pa, pb in zip(a.params(), b.params()):
            assert (pa == pb).all()

    def test_invalid_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            kaiming_init((0, 8, 8, 2), seed=0)


class TestForward:
    def test_deterministic_without_dropout(self):
        model = kaiming_init((2, 16, 16, 2), seed=2)
        x = np.random.default_rng(0).normal(size=(5, 2))
        a = model.predict_logits(x)
        b = model.predict_logits(x)
        assert (a == b).all()

    def test_dropout_rate_zero_modes_agree(self):
        model = kaiming_init((2, 16, 16, 2), seed=3, dropout=0.0)
        x = np.random.default_rng(1).normal(size=(4, 2))
        inactive = model.predict_logits(x)
        active, _, _ = forward(model, x, dropout_active=True, rng=np.random.default_rng(2))
        assert (inactive == active).all()

    def test_zero_input_zero_bias_gives_zero_logits(self):
        model = kaiming_init((3, 8, 8, 2), seed=4)
        logits = model.predict_logits(np.zeros((2, 3)))
        assert (logits == 0.0).all()

    def test_active_dropout_requires_rng(self):
        model = kaiming_init((2, 8, 8, 2), seed=6)
        with pytest.raises(InvalidInputError):
            forward(model, np.zeros((1, 2)), dropout_active=True)

    def test_dropout_masks_differ_between_calls(self):
        model = kaiming_init((2, 64, 64, 2), seed=7, dropout=0.5)
        x = np.random.default_rng(3).normal(size=(1, 2))
        rng = np.random.default_rng(4)
        a, _, _ = forward(model, x, dropout_active=True, rng=rng)
        b, _, _ = forward(model, x, dropout_active=True, rng=rng)
        assert not (a == b).all()

    @pytest.mark.parametrize("dropout, draws", [(0.0, 0), (0.4, 11 * (7 + 5))])
    def test_dropout_forward_takes_dropout_draws_steps(self, dropout, draws):
        # MC-dropout passes jump to their place in the stream by this count
        model = kaiming_init((3, 7, 5, 2), seed=9, dropout=dropout)
        x = np.random.default_rng(6).normal(size=(11, 3))
        rng, expected = np.random.default_rng(8), np.random.default_rng(8)
        forward(model, x, dropout_active=True, rng=rng)
        assert dropout_draws(model, 11) == draws
        expected.bit_generator.advance(draws)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_nonfinite_input_raises(self):
        model = kaiming_init((2, 8, 8, 2), seed=8)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergenceError):
                model.predict_logits(np.array([[np.inf, 0.0]]))

    def test_features_are_penultimate_activations(self):
        model = kaiming_init((2, 8, 8, 2), seed=9)
        x = np.random.default_rng(5).normal(size=(6, 2))
        feats = model.features(x)
        assert feats.shape == (6, 8)
        np.testing.assert_allclose(feats @ model.w3 + model.b3, model.predict_logits(x))


class TestDropoutPass:
    """One MC-dropout pass from shared layer-1 activations and reused
    buffers is an active-dropout forward, bit for bit."""

    @pytest.mark.parametrize("n", [1, PASS_ROW_BLOCK - 1, PASS_ROW_BLOCK,
                                   PASS_ROW_BLOCK + 1, 2 * PASS_ROW_BLOCK + 1])
    @pytest.mark.parametrize("dropout", [0.0, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("dims", [(2, 64, 64, 2), (3, 13, 5, 3), (4, 33, 17, 4),
                                      (2, 1, 1, 2)])
    def test_matches_forward_and_its_stream(self, dims, dropout, n):
        model = kaiming_init(dims, seed=40, dropout=dropout)
        x = np.random.default_rng(41).normal(size=(n, dims[0]))
        want_rng, rng = np.random.default_rng(42), np.random.default_rng(42)
        want, _, _ = forward(model, x, dropout_active=True, rng=want_rng)
        # stale buffer contents must not leak into the pass
        a1, a2 = np.full((n, dims[1]), np.nan), np.full((n, dims[2]), np.nan)
        got = dropout_pass(model, hidden1(model, x), rng, a1, a2)
        assert_same_bits(got, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if dropout == 0.0:  # draws nothing
            assert rng.bit_generator.state == np.random.default_rng(42).bit_generator.state


class TestBackward:
    def test_matches_finite_differences(self):
        # central differences over every parameter entry of a small model
        model = kaiming_init((3, 5, 4, 2), seed=10, dropout=0.0)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)

        logits, _, cache = forward(model, x)
        grad_logits = softmax(logits) - batch_onehot(labels, 2)
        grads = backward(model, cache, grad_logits)

        step = 1e-6
        for p, g in zip(model.params(), split_flat(grads, model.dims)):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + step
                up = ce_batch_value(model, x, labels)
                flat_p[idx] = orig - step
                down = ce_batch_value(model, x, labels)
                flat_p[idx] = orig
                fd = (up - down) / (2 * step)
                assert abs(fd - flat_g[idx]) <= 1e-6 * max(1.0, abs(flat_g[idx]))

    def test_dropout_mask_respected(self):
        # gradients must flow only through surviving units; 64 units at rate
        # 0.5 leave about 4 dropped in all 4 rows
        model = kaiming_init((2, 64, 8, 2), seed=12, dropout=0.5)
        x = np.random.default_rng(13).normal(size=(4, 2))
        logits, _, cache = forward(
            model, x, dropout_active=True, rng=np.random.default_rng(14)
        )
        _, _, masks = reference_forward(
            model, x, dropout_active=True, rng=np.random.default_rng(14)
        )
        grad_logits = softmax(logits) - batch_onehot(np.zeros(4, dtype=int), 2)
        dw1, db1 = split_flat(backward(model, cache, grad_logits), model.dims)[:2]
        dead_cols = (masks[0] == 0.0).all(axis=0)
        assert dead_cols.any()
        assert (dw1[:, dead_cols] == 0.0).all() and (db1[dead_cols] == 0.0).all()
        assert (db1[~dead_cols] != 0.0).any()

    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_flat_gradients_match_loop(self, n):
        # gradients written into slices of one buffer == six separate arrays
        model = kaiming_init((3, 9, 7, 4), seed=20, dropout=0.3)
        x = np.random.default_rng(21).normal(size=(n, 3))
        logits, _, cache = forward(
            model, x, dropout_active=True, rng=np.random.default_rng(22)
        )
        _, _, masks = reference_forward(
            model, x, dropout_active=True, rng=np.random.default_rng(22)
        )
        grad_logits = softmax(logits) - batch_onehot(np.arange(n) % 4, 4)
        flat = backward(model, cache, grad_logits)
        assert flat.shape == model.flat.shape
        for got, want in zip(split_flat(flat, model.dims),
                             loop_backward(model, cache, grad_logits, masks)):
            assert got.shape == want.shape
            assert (got == want).all()

    def test_reused_buffer_keeps_no_stale_slot(self):
        # two batches of different sizes, dropout on then off, through one
        # NaN-filled gradient buffer: each result equals the loop reference
        model = kaiming_init((3, 9, 7, 4), seed=42, dropout=0.3)
        out = MlpModel(np.full_like(model.flat, np.nan), model.dims)
        rng = np.random.default_rng(43)
        for n, active in ((5, True), (2, False)):
            x = rng.normal(size=(n, 3))
            _, _, masks = reference_forward(model, x, dropout_active=active,
                                            rng=copy.deepcopy(rng))
            logits, _, cache = forward(model, x, dropout_active=active, rng=rng)
            grad_logits = softmax(logits) - batch_onehot(np.arange(n) % 4, 4)
            assert backward(model, cache, grad_logits, out=out) is out.flat
            for got, want in zip(out.params(),
                                 loop_backward(model, cache, grad_logits, masks)):
                assert_same_bits(got, want)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()


@st.composite
def forward_cases(draw):
    """A small model, 1..64 input rows and per-row logit gradients.

    The dropout rate is 0, 0.2 or 0.5, active or not.  Half the cases draw
    inputs, parameters and gradients from a grid of halves with signed
    zeros, so many pre-activations are exactly +-0.
    """
    n = draw(st.integers(1, 64))
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 8)),
            draw(st.integers(1, 8)), draw(st.integers(2, 4)))
    if draw(st.booleans()):
        elements = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    else:
        elements = st.floats(-3.0, 3.0)
    flat = draw(hnp.arrays(np.float64, param_count(dims), elements=elements))
    return {
        "model": MlpModel(flat, dims, dropout=draw(st.sampled_from([0.0, 0.2, 0.5]))),
        "x": draw(hnp.arrays(np.float64, (n, dims[0]), elements=elements)),
        "grad_logits": draw(hnp.arrays(np.float64, (n, dims[3]), elements=elements)),
        "active": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestInPlaceForward:
    """The in-place forward gives the out-of-place bits, and backward's
    a > 0 gates and dropout scale give those of the reference's masks."""

    @settings(deadline=None, max_examples=200)
    @given(forward_cases())
    def test_matches_out_of_place_reference(self, case):
        model, x, active = case["model"], case["x"], case["active"]
        logits, feats, cache = forward(
            model, x, dropout_active=active, rng=np.random.default_rng(case["seed"])
        )
        ref_logits, ref_acts, ref_masks = reference_forward(
            model, x, dropout_active=active, rng=np.random.default_rng(case["seed"])
        )
        assert_same_bits(logits, ref_logits)
        for got, want in zip([feats, cache.a1, cache.a2], [ref_acts[1]] + ref_acts):
            assert_same_bits(got, want)
        assert cache.scale == (1.0 / (1.0 - model.dropout) if ref_masks else 1.0)

        # with the activations equal, loop_backward rebuilds the reference's
        # pre-activations and gates them and the drawn masks
        grads = backward(model, cache, case["grad_logits"])
        for got, want in zip(split_flat(grads, model.dims),
                             loop_backward(model, cache, case["grad_logits"], ref_masks)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("h1,h2", [(64, 64), (64, 1)])
    def test_dropout_forward_allocation_budget(self, h1, h2):
        # one 20000-row pass with dropout holds a1, a2 and their two masks,
        # 4.0 x (N * 64 * 8) bytes at 64/64; the budget leaves 2.5% for the
        # logits, so one more N x H temporary exceeds it (the 64/1 case
        # catches a layer-1 temporary freed before layer 2 peaks)
        n = 20000
        model = kaiming_init((2, h1, h2, 2), seed=33, dropout=0.2)
        x = np.random.default_rng(34).normal(size=(n, 2))
        rng = np.random.default_rng(35)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            forward(model, x, dropout_active=True, rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.025 * 2 * n * (h1 + h2) * 8


class TestAdam:
    def test_zero_grads_no_decay_is_identity(self):
        model = kaiming_init((2, 4, 4, 2), seed=15)
        before = model.flat.copy()
        state = adam_init(model.flat)
        adam_step(model.flat, np.zeros_like(model.flat), state, lr=1e-3)
        assert (before == model.flat).all()

    def test_first_step_size_is_lr(self):
        # bias correction makes |update| = lr * g / (|g| + eps) on step one
        for g in (0.3, -2.0, 10.0):
            p = np.array([1.0])
            state = adam_init(p)
            adam_step(p, np.array([g]), state, lr=5e-4)
            moved = 1.0 - p[0]
            assert abs(moved - np.sign(g) * 5e-4) <= 1e-9

    def test_weight_decay_closed_form(self):
        p = np.array([2.0, -3.0])
        state = adam_init(p)
        lr, lam, steps = 1e-2, 0.5, 7
        for _ in range(steps):
            adam_step(p, np.zeros(2), state, lr=lr, weight_decay=lam)
        np.testing.assert_allclose(
            p, np.array([2.0, -3.0]) * (1.0 - lr * lam) ** steps, rtol=1e-12
        )

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.3])
    def test_flat_step_matches_loop(self, weight_decay):
        # one pass over the flat buffer == one pass per array, bit for bit
        model = kaiming_init((3, 6, 5, 4), seed=23)
        ref = model.copy()
        state = adam_init(model.flat)
        ref_m = [np.zeros_like(p) for p in ref.params()]
        ref_v = [np.zeros_like(p) for p in ref.params()]
        rng = np.random.default_rng(24)
        for t in range(1, 201):
            grads = rng.normal(scale=rng.choice([1e-6, 1.0, 50.0]), size=model.flat.size)
            grads[rng.random(grads.size) < 0.1] = 0.0
            lr = 1e-3 * 0.95 ** (t // 10)
            adam_step(model.flat, grads, state, lr=lr, weight_decay=weight_decay)
            loop_adam_step(ref.params(), split_flat(grads, ref.dims), ref_m, ref_v,
                           t, lr, weight_decay)
        assert state.t == 200
        assert (model.flat == ref.flat).all()
        for got, want in ((state.m, ref_m), (state.v, ref_v)):
            assert (got == np.concatenate([a.ravel() for a in want])).all()

    @pytest.mark.parametrize("config", [
        # the 1-row leftover batch (199 = 6 * 33 + 1) takes the bsm self-pair path
        TrainConfig(method="bsm", noise_rate=0.2, n_train=199, n_val=51,
                    batch_size=33, max_epochs=4, seed=3),
        TrainConfig(method="ce", noise_rate=0.1, n_train=150, n_val=50,
                    max_epochs=4, weight_decay=0.0, seed=4),
        TrainConfig(method="ce_aug", noise_rate=0.1, n_train=150, n_val=50,
                    max_epochs=3, aug_scale_jitter=0.1, seed=5),
        TrainConfig(method="mixup_ce", noise_rate=0.2, n_train=150, n_val=50,
                    max_epochs=3, seed=6),
        # rate 0 draws no mask
        TrainConfig(method="ce", noise_rate=0.1, n_train=150, n_val=50,
                    max_epochs=3, dropout=0.0, seed=7),
        # 161 = 5 * 32 + 1: the last batch holds one row
        TrainConfig(method="ce", noise_rate=0.1, n_train=161, n_val=41,
                    max_epochs=3, seed=8),
    ], ids=["bsm", "ce_no_decay", "ce_aug", "mixup_ce", "no_dropout", "ce_last_row"])
    def test_training_matches_loop(self, config, monkeypatch):
        dataset = dataset_from_config(config)
        model, log = train(config, dataset)
        monkeypatch.setattr(trainer_module, "backward_step", loop_backward_step)
        ref_model, ref_log = train(config, dataset)
        assert (model.flat == ref_model.flat).all()
        assert log.train_loss == ref_log.train_loss
        assert log.val_accuracy == ref_log.val_accuracy

    def test_backward_step_reduces_loss(self):
        model = kaiming_init((2, 16, 16, 2), seed=16, dropout=0.0)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(32, 2))
        labels = (x[:, 0] > 0).astype(int)
        state = adam_init(model.flat)
        before = ce_batch_value(model, x, labels)
        for _ in range(50):
            logits, _, cache = forward(model, x)
            grad_logits = softmax(logits) - batch_onehot(labels, 2)
            backward_step(model, cache, grad_logits, state, lr=5e-3)
        assert ce_batch_value(model, x, labels) < before


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = kaiming_init((3, 8, 6, 2), seed=18, dropout=0.35)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dims == model.dims
        assert loaded.dropout == model.dropout
        for a, b in zip(model.params(), loaded.params()):
            assert (a == b).all()

    @pytest.mark.parametrize("dims", [(3, 8, 6, 2), (1, 1, 1, 2)])
    def test_text_matches_per_value_writer(self, dims, tmp_path):
        model = kaiming_init(dims, seed=44, dropout=0.35)
        specials = [-0.0, 5e-324, 1e300, -1.5e-7, 0.1, 1.0 / 3.0, 2.0 ** 53, -2.0]
        model.flat[:len(specials)] = specials[:model.flat.size]
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text() == per_value_model_text(model)

    @pytest.mark.parametrize("edit,line", [
        (lambda lines: lines[:1], 2),                           # header only
        (lambda lines: lines[:6] + [""] + lines[6:], 7),        # blank line before b1
        (lambda lines: lines[:5] + ["0.5 abc 0.5"] + lines[6:], 6),  # non-numeric value
    ], ids=["header_only", "blank_line", "non_numeric"])
    def test_malformed_file_names_path_and_line(self, edit, line, tmp_path):
        path = tmp_path / "model.txt"
        save_model(kaiming_init((2, 3, 3, 2), seed=45), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(InvalidInputError,
                           match=f"{re.escape(str(path))} at line {line}:"):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "1.5"])
    def test_dropout_out_of_range_names_path_and_line(self, value, tmp_path):
        # the model's dropout must lie in [0, 1), as TrainConfig's does
        path = tmp_path / "model.txt"
        save_model(kaiming_init((2, 3, 3, 2), seed=46, dropout=0.35), path)
        path.write_text(path.read_text().replace("dropout 0.35", f"dropout {value}"))
        with pytest.raises(InvalidInputError,
                           match=f"{re.escape(str(path))} at line 3: dropout"):
            load_model(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-model\n")
        with pytest.raises(InvalidInputError):
            load_model(path)

    def test_copy_is_independent(self):
        model = kaiming_init((2, 4, 4, 2), seed=19)
        clone = model.copy()
        clone.w1[0, 0] += 1.0
        assert model.w1[0, 0] != clone.w1[0, 0]

    def test_rejects_missing_param(self, tmp_path):
        model = kaiming_init((2, 3, 3, 2), seed=25)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop the b3 block
        with pytest.raises(InvalidInputError, match="disagrees"):
            load_model(path)

    def test_rejects_shape_disagreeing_with_dims(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(kaiming_init((2, 3, 3, 2), seed=26), path)
        text = path.read_text().replace("dims 2 3 3 2", "dims 2 3 4 2")
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="disagrees"):
            load_model(path)


class TestFlatBuffer:
    def test_kaiming_init_params_are_views(self):
        assert_views_of_flat(kaiming_init((3, 8, 6, 2), seed=27))

    def test_load_model_params_are_views(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(kaiming_init((3, 8, 6, 2), seed=28), path)
        assert_views_of_flat(load_model(path))

    def test_copy_params_are_views(self):
        model = kaiming_init((3, 8, 6, 2), seed=29)
        clone = model.copy()
        assert_views_of_flat(clone)
        assert not np.shares_memory(clone.flat, model.flat)
        assert (clone.flat == model.flat).all()

    def test_pickle_and_deepcopy_keep_views(self):
        model = kaiming_init((3, 8, 6, 2), seed=30, dropout=0.35)
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert_views_of_flat(clone)
            assert (clone.flat == model.flat).all()
            assert (clone.dims, clone.dropout) == (model.dims, model.dropout)

    def test_flat_layout_is_params_order(self):
        model = kaiming_init((3, 8, 6, 2), seed=31)
        assert (model.flat == np.concatenate([p.ravel() for p in model.params()])).all()
        model.flat[0] = 7.0
        assert model.w1[0, 0] == 7.0
        model.b3[-1] = -7.0
        assert model.flat[-1] == -7.0

    def test_rejects_wrong_buffer(self):
        with pytest.raises(InvalidInputError):
            MlpModel(np.zeros(5), (2, 3, 3, 2))
        with pytest.raises(InvalidInputError):
            MlpModel(np.zeros(32, dtype=np.float32), (2, 3, 3, 2))
