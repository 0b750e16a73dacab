"""Loss targets through the one softmax-CE kernel: hand oracles, reduction
identities and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixboot._kernels import loss_from_targets
from mixboot.losses import batch_onehot, softmax
from oracles import bsm_targets, reference_bsm_targets, reference_softmax

# frozen hand-oracle values
CE_LN2_LABEL1 = 1.0986122886681098          # -ln(1/3)
BS_06_W_INERT = 0.5108256237659907          # -ln 0.6
BS_03_W04 = 0.8650536601710546              # -(0.6 ln 0.3 + 0.4 ln 0.7)
MIXUP_06_HALF = 0.7135581778200728          # 0.5(-ln 0.6) + 0.5(-ln 0.4)
BSM_COMPOSED = 0.6108643020548935           # 0.5*BS_03_W04 + 0.5*(-ln 0.7)


def logits_for(probs):
    """A 1-row batch of logits whose softmax reproduces the probability row."""
    return np.log(np.asarray(probs, dtype=np.float64))[None, :]


def bs_targets(logits, labels, w, soft=False):
    """Bootstrapped-CE targets: each row paired with itself at gamma 1."""
    ones = np.ones(len(labels))
    return bsm_targets(logits, labels, labels, ones, w, w, soft)


def mixup_targets(logits, labels_i, labels_j, gammas, soft=False):
    """Mixup-CE targets as the trainer builds them: bsm with w = 0."""
    zeros = np.zeros(len(labels_i))
    return bsm_targets(logits, labels_i, labels_j, gammas, zeros, zeros, soft)


def mixup_rows(labels_i, labels_j, gammas, k):
    """Hand mixup rows gamma * onehot(y_i) + (1 - gamma) * onehot(y_j)."""
    g = np.asarray(gammas, dtype=np.float64)[:, None]
    eye = np.eye(k)
    return g * eye[np.asarray(labels_i)] + (1.0 - g) * eye[np.asarray(labels_j)]


def assert_same_bits(a, b):
    assert (a[0] == b[0]).all()
    assert (a[1] == b[1]).all()


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

    @pytest.mark.parametrize("k", range(2, 8))
    def test_columns_give_the_bits_of_axis_reductions(self, k):
        # rows at several scales, so some classes underflow to 0 after exp
        rng = np.random.default_rng(k)
        z = rng.normal(size=(20000, k)) * rng.choice([0.01, 1.0, 30.0, 800.0],
                                                    size=(20000, 1))
        assert softmax(z).tobytes() == reference_softmax(z).tobytes()
        for row in z[:50]:
            assert softmax(row).tobytes() == reference_softmax(row).tobytes()

    def test_writes_into_out(self):
        z = np.random.default_rng(8).normal(size=(9, 2))
        out = np.full((9, 2), np.nan)
        assert softmax(z, out=out) is out
        assert out.tobytes() == reference_softmax(z).tobytes()


class TestCeLoss:
    def test_ln2_oracle(self):
        values, grads = loss_from_targets(
            np.array([[math.log(2.0), 0.0]]), batch_onehot([1], 2))
        assert abs(values[0] - CE_LN2_LABEL1) <= 1e-9
        np.testing.assert_allclose(grads[0], [2 / 3, 1 / 3 - 1.0], atol=1e-12)

    def test_uniform_binary(self):
        values, _ = loss_from_targets(np.zeros((1, 2)), batch_onehot([0], 2))
        assert abs(values[0] - math.log(2.0)) <= 1e-12

    def test_peaked_logits_vanish(self):
        values, grads = loss_from_targets(np.array([[50.0, 0.0]]), batch_onehot([0], 2))
        assert values[0] <= 1e-12
        assert np.abs(grads).max() <= 1e-12


class TestBsLoss:
    def test_w_zero_is_ce_bitwise(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(20, 3)) * 3
        labels = rng.integers(0, 3, size=20)
        assert_same_bits(
            loss_from_targets(z, bs_targets(z, labels, np.zeros(20))),
            loss_from_targets(z, batch_onehot(labels, 3)),
        )

    def test_agreeing_prediction_makes_w_inert(self):
        # softmax peaks on the label, so z == onehot(label) and t == onehot(label)
        z = logits_for([0.6, 0.4])
        values, _ = loss_from_targets(z, bs_targets(z, [0], [0.5]))
        assert abs(values[0] - BS_06_W_INERT) <= 1e-9

    def test_disagreeing_prediction_oracle(self):
        # prediction is class 1, label 0, w=0.4 -> t = (0.6, 0.4)
        z = logits_for([0.3, 0.7])
        values, grads = loss_from_targets(z, bs_targets(z, [0], [0.4]))
        assert abs(values[0] - BS_03_W04) <= 1e-9
        np.testing.assert_allclose(grads[0], [0.3 - 0.6, 0.7 - 0.4], atol=1e-12)

    def test_soft_variant_uses_softmax_row(self):
        z = logits_for([0.3, 0.7])
        t = bs_targets(z, [0], [0.4], soft=True)
        np.testing.assert_allclose(t[0], [0.6 + 0.4 * 0.3, 0.4 * 0.7], atol=1e-12)
        expected = -(t[0, 0] * math.log(0.3) + t[0, 1] * math.log(0.7))
        values, _ = loss_from_targets(z, t)
        assert abs(values[0] - expected) <= 1e-9


class TestMixupCeLoss:
    def test_gamma_one_is_ce_bitwise(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(20, 4)) * 2
        li, lj = rng.integers(0, 4, size=20), rng.integers(0, 4, size=20)
        assert_same_bits(
            loss_from_targets(z, mixup_targets(z, li, lj, np.ones(20))),
            loss_from_targets(z, batch_onehot(li, 4)),
        )

    def test_equal_labels_collapse(self):
        gammas = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # dyadic: exact arithmetic
        z = np.tile([0.3, -1.2, 0.8], (5, 1))
        labels = np.full(5, 2)
        a, _ = loss_from_targets(z, mixup_targets(z, labels, labels, gammas))
        b, _ = loss_from_targets(z, batch_onehot(labels, 3))
        assert (a == b).all()

    def test_hand_oracle(self):
        z = logits_for([0.6, 0.4])
        values, _ = loss_from_targets(z, mixup_targets(z, [0], [1], [0.5]))
        assert abs(values[0] - MIXUP_06_HALF) <= 1e-9

    def test_convexity_in_gamma(self):
        gammas = np.array([0.0, 1.0, 0.2, 0.5, 0.8])
        z = np.repeat(logits_for([0.6, 0.4]), 5, axis=0)
        v, _ = loss_from_targets(
            z, mixup_targets(z, np.zeros(5, int), np.ones(5, int), gammas))
        for gamma, value in zip(gammas[2:], v[2:]):
            assert abs(value - (gamma * v[1] + (1 - gamma) * v[0])) <= 1e-12


class TestBsmLoss:
    def test_zero_weights_reduce_to_mixup_bitwise(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(20, 3)) * 3
        li, lj = rng.integers(0, 3, size=20), rng.integers(0, 3, size=20)
        gammas, zeros = rng.random(20), np.zeros(20)
        assert_same_bits(
            loss_from_targets(z, bsm_targets(z, li, lj, gammas, zeros, zeros)),
            loss_from_targets(z, mixup_rows(li, lj, gammas, 3)),
        )

    def test_gamma_one_reduces_to_bs_bitwise(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(20, 3)) * 3
        li, lj = rng.integers(0, 3, size=20), rng.integers(0, 3, size=20)
        wi, wj = rng.random(20), rng.random(20)
        assert_same_bits(
            loss_from_targets(z, bsm_targets(z, li, lj, np.ones(20), wi, wj)),
            loss_from_targets(z, bs_targets(z, li, wi)),
        )

    def test_composed_hand_oracle(self):
        z = logits_for([0.3, 0.7])
        values, _ = loss_from_targets(
            z, bsm_targets(z, [0], [1], [0.5], [0.4], [0.0]))
        assert abs(values[0] - BSM_COMPOSED) <= 1e-9

    def test_shared_hard_prediction(self):
        # both bootstrap terms must reuse the same z row from the one
        # forward pass; with w_i = w_j = 1 the target is exactly z
        z = logits_for([0.3, 0.7])
        values, _ = loss_from_targets(
            z, bsm_targets(z, [0], [1], [0.37], [1.0], [1.0]))
        assert abs(values[0] - (-math.log(0.7))) <= 1e-12

    def test_target_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(50, 4)) * 2
        targets = bsm_targets(
            z, rng.integers(0, 4, size=50), rng.integers(0, 4, size=50),
            rng.random(50), rng.random(50), rng.random(50))
        _, grads = loss_from_targets(z, targets)
        # grad = softmax - t, so -sum(grad - softmax) recovers sum(t)
        t_sum = -(grads - softmax(z)).sum(axis=1)
        assert np.abs(t_sum - 1.0).max() <= 1e-12


class TestBatchBuilders:
    def test_batch_onehot_matches_scalar(self):
        labels = np.array([2, 0, 1])
        rows = batch_onehot(labels, 3)
        assert (rows == np.eye(3)[labels]).all()
        for r, lab in zip(rows, labels):
            assert (r == batch_onehot([lab], 3)[0]).all()

    def test_batch_mixup_matches_scalar_loss(self):
        # row r of an 8-row batch is the 1-row batch of that row, bit for bit
        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 3))
        li = rng.integers(0, 3, size=8)
        lj = rng.integers(0, 3, size=8)
        g = rng.random(8)
        values, grads = loss_from_targets(z, mixup_targets(z, li, lj, g))
        for r in range(8):
            s = slice(r, r + 1)
            one = loss_from_targets(z[s], mixup_targets(z[s], li[s], lj[s], g[s]))
            assert_same_bits(one, (values[s], grads[s]))

    def test_batch_bsm_matches_scalar_loss(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(8, 3))
        li = rng.integers(0, 3, size=8)
        lj = rng.integers(0, 3, size=8)
        g = rng.random(8)
        wi = rng.random(8)
        wj = rng.random(8)
        values, grads = loss_from_targets(z, bsm_targets(z, li, lj, g, wi, wj))
        for r in range(8):
            s = slice(r, r + 1)
            one = loss_from_targets(
                z[s], bsm_targets(z[s], li[s], lj[s], g[s], wi[s], wj[s]))
            assert_same_bits(one, (values[s], grads[s]))


class TestHardPrediction:
    def test_tie_goes_to_lowest_index(self):
        # at w = 1 the target is the hard prediction itself
        z = np.array([[1.0, 1.0, 0.0]])
        assert (bs_targets(z, [2], [1.0]) == [[1.0, 0.0, 0.0]]).all()


class TestFiniteDifferences:
    def test_loss_from_target_gradient(self):
        rng = np.random.default_rng(9)
        step = 1e-6
        z = rng.normal(size=(10, 4)) * 2
        t = rng.dirichlet(np.ones(4), size=10)
        _, grad = loss_from_targets(z, t)
        for d in range(4):
            zp, zm = z.copy(), z.copy()
            zp[:, d] += step
            zm[:, d] -= step
            fd = (loss_from_targets(zp, t)[0] - loss_from_targets(zm, t)[0]) / (2 * step)
            tol = 1e-7 * np.maximum(1.0, np.abs(grad[:, d]))
            assert (np.abs(fd - grad[:, d]) <= tol).all()


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


class TestOneCeCore:
    """Every loss is the batch kernel's row for its target, bit for bit."""

    @settings(deadline=None)
    @given(loss_batches())
    def test_kernel_finite_with_zero_sum_gradients(self, b):
        values, grads = loss_from_targets(b["logits"], b["targets"])
        assert np.isfinite(values).all()
        assert np.isfinite(grads).all()
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(loss_batches())
    def test_reduction_identities_hold_bitwise(self, b):
        # bs(w=0) = ce, bsm(w=0, w=0) = mixup, mixup(gamma=1) = ce
        z, li, lj, g = b["logits"], b["labels_i"], b["labels_j"], b["gammas"]
        soft = b["soft"]
        n, k = z.shape
        ones, zeros = np.ones(n), np.zeros(n)
        ce = batch_onehot(li, k)
        assert (bs_targets(z, li, zeros, soft) == ce).all()
        assert (mixup_targets(z, li, lj, g, soft) == mixup_rows(li, lj, g, k)).all()
        assert (mixup_targets(z, li, lj, ones, soft) == ce).all()

    @settings(deadline=None)
    @given(loss_batches())
    def test_rows_do_not_depend_on_their_batch(self, b):
        # a 1-row batch (the trainer's leftover batch) gets the bits that
        # row would get inside any larger batch
        z, li, lj, g = b["logits"], b["labels_i"], b["labels_j"], b["gammas"]
        wi, wj, soft = b["w_i"], b["w_j"], b["soft"]
        full = bsm_targets(z, li, lj, g, wi, wj, soft)
        values, grads = loss_from_targets(z, full)
        for r in range(len(z)):
            s = slice(r, r + 1)
            one = bsm_targets(z[s], li[s], lj[s], g[s], wi[s], wj[s], soft)
            assert (one == full[s]).all()
            assert_same_bits(loss_from_targets(z[s], one), (values[s], grads[s]))

    @settings(deadline=None)
    @given(loss_batches())
    def test_batch_targets_sum_to_one(self, b):
        z, li, lj, g = b["logits"], b["labels_i"], b["labels_j"], b["gammas"]
        k = z.shape[1]
        for t in (
            batch_onehot(li, k),
            mixup_targets(z, li, lj, g, b["soft"]),
            bsm_targets(z, li, lj, g, b["w_i"], b["w_j"], b["soft"]),
        ):
            np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


class TestSplitTargets:
    """The per-step builder fed with per-epoch label halves gives the bits
    of the formula computed whole from the labels on each step."""

    @settings(deadline=None)
    @given(loss_batches())
    def test_equals_the_whole_formula(self, b):
        args = (b["logits"], b["labels_i"], b["labels_j"], b["gammas"],
                b["w_i"], b["w_j"], b["soft"])
        assert (bsm_targets(*args) == reference_bsm_targets(*args)).all()

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("w", [0.0, 0.37, 1.0])
    def test_endpoint_weights_and_self_pairs(self, soft, w):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(30, 3)) * 3
        li, lj = rng.integers(0, 3, size=30), rng.integers(0, 3, size=30)
        ws = np.full(30, w)
        # a mixed pair, and each row paired with itself at gamma 1
        for g, labels_j, w_j in ((rng.random(30), lj, rng.random(30)),
                                 (np.ones(30), li, ws)):
            args = (z, li, labels_j, g, ws, w_j, soft)
            assert (bsm_targets(*args) == reference_bsm_targets(*args)).all()
