"""Loss kernels: hand oracles, reduction identities and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixboot import _kernels
from mixboot.errors import InvalidInputError
from mixboot.losses import (
    batch_bsm_targets,
    batch_mixup_targets,
    batch_onehot,
    bootstrap_target,
    bs_loss,
    bsm_loss,
    ce_loss,
    hard_prediction,
    loss_from_target,
    mixup_ce_loss,
    onehot,
    softmax,
)

# frozen scalar hand-oracle values
CE_LN2_LABEL1 = 1.0986122886681098          # -ln(1/3)
BS_06_W_INERT = 0.5108256237659907          # -ln 0.6
BS_03_W04 = 0.8650536601710546              # -(0.6 ln 0.3 + 0.4 ln 0.7)
MIXUP_06_HALF = 0.7135581778200728          # 0.5(-ln 0.6) + 0.5(-ln 0.4)
BSM_COMPOSED = 0.6108643020548935           # 0.5*BS_03_W04 + 0.5*(-ln 0.7)


def logits_for(probs):
    """Logits whose softmax reproduces the given probability row."""
    return np.log(np.asarray(probs, dtype=np.float64))


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_constant_row(self):
        np.testing.assert_allclose(softmax(np.full(3, 2.7)), np.full(3, 1 / 3))

    def test_ln2_oracle(self):
        np.testing.assert_allclose(
            softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=5)
        np.testing.assert_allclose(softmax(z), softmax(z + 37.0), atol=1e-15)

    def test_extreme_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


class TestCeLoss:
    def test_ln2_oracle(self):
        out = ce_loss(np.array([math.log(2.0), 0.0]), 1)
        assert abs(out.value - CE_LN2_LABEL1) <= 1e-9
        np.testing.assert_allclose(out.grad_logits, [2 / 3, 1 / 3 - 1.0], atol=1e-12)

    def test_uniform_binary(self):
        assert abs(ce_loss(np.zeros(2), 0).value - math.log(2.0)) <= 1e-12

    def test_peaked_logits_vanish(self):
        out = ce_loss(np.array([50.0, 0.0]), 0)
        assert out.value <= 1e-12
        assert np.abs(out.grad_logits).max() <= 1e-12

    def test_label_range_checked(self):
        with pytest.raises(InvalidInputError):
            ce_loss(np.zeros(2), 2)


class TestBsLoss:
    def test_w_zero_is_ce_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(size=3) * 3
            label = int(rng.integers(3))
            a, b = bs_loss(z, label, 0.0), ce_loss(z, label)
            assert a.value == b.value
            assert (a.grad_logits == b.grad_logits).all()

    def test_agreeing_prediction_makes_w_inert(self):
        # softmax peaks on the label, so z == onehot(label) and t == onehot(label)
        out = bs_loss(logits_for([0.6, 0.4]), 0, 0.5)
        assert abs(out.value - BS_06_W_INERT) <= 1e-9

    def test_disagreeing_prediction_oracle(self):
        # prediction is class 1, label 0, w=0.4 -> t = (0.6, 0.4)
        out = bs_loss(logits_for([0.3, 0.7]), 0, 0.4)
        assert abs(out.value - BS_03_W04) <= 1e-9
        np.testing.assert_allclose(
            out.grad_logits, [0.3 - 0.6, 0.7 - 0.4], atol=1e-12
        )

    def test_soft_variant_uses_softmax_row(self):
        z = logits_for([0.3, 0.7])
        t = bootstrap_target(z, 0, 0.4, soft=True)
        np.testing.assert_allclose(t, [0.6 + 0.4 * 0.3, 0.4 * 0.7], atol=1e-12)
        expected = -(t[0] * math.log(0.3) + t[1] * math.log(0.7))
        assert abs(bs_loss(z, 0, 0.4, soft=True).value - expected) <= 1e-9

    def test_w_range_checked(self):
        with pytest.raises(InvalidInputError):
            bs_loss(np.zeros(2), 0, 1.5)


class TestMixupCeLoss:
    def test_gamma_one_is_ce_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.normal(size=4) * 2
            li, lj = int(rng.integers(4)), int(rng.integers(4))
            a, b = mixup_ce_loss(z, li, lj, 1.0), ce_loss(z, li)
            assert a.value == b.value
            assert (a.grad_logits == b.grad_logits).all()

    def test_equal_labels_collapse(self):
        z = np.array([0.3, -1.2, 0.8])
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):  # dyadic: exact arithmetic
            a, b = mixup_ce_loss(z, 2, 2, gamma), ce_loss(z, 2)
            assert a.value == b.value

    def test_hand_oracle(self):
        out = mixup_ce_loss(logits_for([0.6, 0.4]), 0, 1, 0.5)
        assert abs(out.value - MIXUP_06_HALF) <= 1e-9

    def test_convexity_in_gamma(self):
        z = logits_for([0.6, 0.4])
        v0 = mixup_ce_loss(z, 0, 1, 0.0).value
        v1 = mixup_ce_loss(z, 0, 1, 1.0).value
        for gamma in (0.2, 0.5, 0.8):
            v = mixup_ce_loss(z, 0, 1, gamma).value
            assert abs(v - (gamma * v1 + (1 - gamma) * v0)) <= 1e-12

    def test_gamma_range_checked(self):
        with pytest.raises(InvalidInputError):
            mixup_ce_loss(np.zeros(2), 0, 1, -0.1)


class TestBsmLoss:
    def test_zero_weights_reduce_to_mixup_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.normal(size=3) * 3
            li, lj = int(rng.integers(3)), int(rng.integers(3))
            gamma = float(rng.random())
            a = bsm_loss(z, li, lj, gamma, 0.0, 0.0)
            b = mixup_ce_loss(z, li, lj, gamma)
            assert a.value == b.value
            assert (a.grad_logits == b.grad_logits).all()

    def test_gamma_one_reduces_to_bs_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.normal(size=3) * 3
            li, lj = int(rng.integers(3)), int(rng.integers(3))
            wi, wj = float(rng.random()), float(rng.random())
            a = bsm_loss(z, li, lj, 1.0, wi, wj)
            b = bs_loss(z, li, wi)
            assert a.value == b.value
            assert (a.grad_logits == b.grad_logits).all()

    def test_composed_hand_oracle(self):
        out = bsm_loss(logits_for([0.3, 0.7]), 0, 1, 0.5, 0.4, 0.0)
        assert abs(out.value - BSM_COMPOSED) <= 1e-9

    def test_shared_hard_prediction(self):
        # both bootstrap terms must reuse the same z row from the one
        # forward pass; with w_i = w_j = 1 the target is exactly z
        z = logits_for([0.3, 0.7])
        out = bsm_loss(z, 0, 1, 0.37, 1.0, 1.0)
        assert abs(out.value - (-math.log(0.7))) <= 1e-12

    def test_target_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.normal(size=4) * 2
            t_sum = (
                bsm_loss(
                    z,
                    int(rng.integers(4)),
                    int(rng.integers(4)),
                    float(rng.random()),
                    float(rng.random()),
                    float(rng.random()),
                ).grad_logits
                - softmax(z)
            ).sum()
            # grad = softmax - t, so -sum(grad - softmax) recovers sum(t)
            assert abs(-t_sum - 1.0) <= 1e-12


class TestBatchBuilders:
    def test_batch_onehot_matches_scalar(self):
        labels = np.array([2, 0, 1])
        rows = batch_onehot(labels, 3)
        for r, lab in zip(rows, labels):
            assert (r == onehot(int(lab), 3)).all()

    def test_batch_mixup_matches_scalar_loss(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 3))
        li = rng.integers(0, 3, size=8)
        lj = rng.integers(0, 3, size=8)
        g = rng.random(8)
        targets = batch_mixup_targets(li, lj, g, 3)
        for r in range(8):
            ref = mixup_ce_loss(z[r], int(li[r]), int(lj[r]), float(g[r]))
            out = loss_from_target(z[r], targets[r])
            assert out.value == ref.value

    def test_batch_bsm_matches_scalar_loss(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(8, 3))
        li = rng.integers(0, 3, size=8)
        lj = rng.integers(0, 3, size=8)
        g = rng.random(8)
        wi = rng.random(8)
        wj = rng.random(8)
        targets = batch_bsm_targets(z, li, lj, g, wi, wj)
        for r in range(8):
            ref = bsm_loss(
                z[r], int(li[r]), int(lj[r]), float(g[r]), float(wi[r]), float(wj[r])
            )
            out = loss_from_target(z[r], targets[r])
            assert out.value == ref.value
            assert (out.grad_logits == ref.grad_logits).all()


class TestHardPrediction:
    def test_tie_goes_to_lowest_index(self):
        assert (hard_prediction(np.array([1.0, 1.0, 0.0])) == [1, 0, 0]).all()


class TestFiniteDifferences:
    def test_loss_from_target_gradient(self):
        rng = np.random.default_rng(9)
        step = 1e-6
        for _ in range(10):
            z = rng.normal(size=4) * 2
            t = rng.dirichlet(np.ones(4))
            grad = loss_from_target(z, t).grad_logits
            for d in range(4):
                zp, zm = z.copy(), z.copy()
                zp[d] += step
                zm[d] -= step
                fd = (loss_from_target(zp, t).value - loss_from_target(zm, t).value) / (
                    2 * step
                )
                assert abs(fd - grad[d]) <= 1e-7 * max(1.0, abs(grad[d]))


@st.composite
def loss_batches(draw):
    """Logits in [-800, 800], K in 2..5, 1..64 rows, targets on the simplex.

    Each target row is a nonnegative weight row divided by its sum
    (Dirichlet-style); an all-zero weight row becomes uniform.  Labels,
    mixup coefficients and noise weights come along for the builders.
    """
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 64))
    logits = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-800.0, 800.0)))
    weights = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    weights[weights.sum(axis=1) == 0.0] = 1.0
    unit = st.floats(0.0, 1.0)
    labels = hnp.arrays(np.int64, n, elements=st.integers(0, k - 1))
    return {
        "logits": logits,
        "targets": weights / weights.sum(axis=1, keepdims=True),
        "labels_i": draw(labels),
        "labels_j": draw(labels),
        "gammas": draw(hnp.arrays(np.float64, n, elements=unit)),
        "w_i": draw(hnp.arrays(np.float64, n, elements=unit)),
        "w_j": draw(hnp.arrays(np.float64, n, elements=unit)),
        "soft": draw(st.booleans()),
    }


def assert_same_bits(out, values, grads, r):
    assert out.value == values[r]
    assert (out.grad_logits == grads[r]).all()


class TestOneCeCore:
    """Every loss is the batch kernel's row for its target, bit for bit."""

    @settings(deadline=None)
    @given(loss_batches())
    def test_kernel_finite_with_zero_sum_gradients(self, b):
        values, grads = _kernels.loss_from_targets(b["logits"], b["targets"])
        assert np.isfinite(values).all()
        assert np.isfinite(grads).all()
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(loss_batches())
    def test_scalar_losses_equal_kernel_rows(self, b):
        z, li, lj = b["logits"], b["labels_i"], b["labels_j"]
        g, wi, wj, soft = b["gammas"], b["w_i"], b["w_j"], b["soft"]
        k = z.shape[1]
        ones, zeros = np.ones(len(z)), np.zeros(len(z))
        ce = _kernels.loss_from_targets(z, batch_onehot(li, k))
        mix = _kernels.loss_from_targets(z, batch_mixup_targets(li, lj, g, k))
        bs = _kernels.loss_from_targets(
            z, batch_bsm_targets(z, li, lj, ones, wi, zeros, soft))
        bsm = _kernels.loss_from_targets(z, batch_bsm_targets(z, li, lj, g, wi, wj, soft))
        for r in range(len(z)):
            yi, yj, gr = int(li[r]), int(lj[r]), float(g[r])
            assert_same_bits(ce_loss(z[r], yi), *ce, r)
            assert_same_bits(bs_loss(z[r], yi, float(wi[r]), soft), *bs, r)
            assert_same_bits(mixup_ce_loss(z[r], yi, yj, gr), *mix, r)
            assert_same_bits(
                bsm_loss(z[r], yi, yj, gr, float(wi[r]), float(wj[r]), soft), *bsm, r)

    @settings(deadline=None)
    @given(loss_batches())
    def test_batch_targets_sum_to_one(self, b):
        z, li, lj, g = b["logits"], b["labels_i"], b["labels_j"], b["gammas"]
        k = z.shape[1]
        for t in (
            batch_onehot(li, k),
            batch_mixup_targets(li, lj, g, k),
            batch_bsm_targets(z, li, lj, g, b["w_i"], b["w_j"], b["soft"]),
        ):
            np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
