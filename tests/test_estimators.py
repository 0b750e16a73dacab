"""Uncertainty estimators: single pass, ensembles, MC dropout and TTA."""

import os

import numpy as np
import pytest

from mixboot.augment import PerturbationPolicy
from mixboot.errors import InvalidInputError, TrainingDivergenceError
from mixboot.estimators import (
    MC_FORK_MIN_ROW_PASSES,
    ensemble_predict,
    mc_dropout_predict,
    single_forward,
    tta_predict,
)
from mixboot.losses import softmax
from mixboot.mlp import kaiming_init
from mixboot.prob_metrics import predictive_entropy


class FixedLogitsModel:
    """Duck-typed stand-in emitting one constant logits row per call.

    rows cycles across calls, so MC-dropout passes can be scripted exactly.
    """

    dropout = 0.5

    def __init__(self, rows, k=2):
        self.rows = [np.asarray(r, dtype=np.float64) for r in rows]
        self.dims = (2, 1, 1, k)
        self.calls = 0

    def predict_logits(self, inputs, dropout_active=False, rng=None):
        row = self.rows[self.calls % len(self.rows)]
        self.calls += 1
        return np.tile(row, (inputs.shape[0], 1))


def example_inputs(n=5, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 2))


class TestSingleForward:
    def test_deterministic(self):
        model = kaiming_init((2, 16, 16, 2), seed=0)
        x = example_inputs()
        a, b = single_forward(model, x), single_forward(model, x)
        assert (a.mean_probs == b.mean_probs).all()
        assert (a.uncertainty == b.uncertainty).all()

    def test_zero_logits_give_ln2(self):
        model = kaiming_init((2, 16, 16, 2), seed=1)  # zero biases
        out = single_forward(model, np.zeros((3, 2)))
        np.testing.assert_allclose(out.uncertainty, np.log(2.0), atol=1e-15)

    def test_entropy_bounds(self):
        model = kaiming_init((2, 16, 16, 3), seed=2)
        out = single_forward(model, example_inputs(50, 3))
        assert (out.uncertainty >= 0.0).all()
        assert (out.uncertainty <= np.log(3.0) + 1e-12).all()

    def test_uncertainty_matches_scalar_entropy(self):
        model = kaiming_init((2, 8, 8, 2), seed=3)
        out = single_forward(model, example_inputs(10, 4))
        for row, h in zip(out.mean_probs, out.uncertainty):
            assert predictive_entropy(row[None])[0] == h

    def test_single_row_input(self):
        model = kaiming_init((2, 8, 8, 2), seed=4)
        out = single_forward(model, np.array([[0.1, -0.2]]))
        assert out.mean_probs.shape == (1, 2)

    def test_no_variance_reported(self):
        model = kaiming_init((2, 8, 8, 2), seed=5)
        assert single_forward(model, example_inputs()).variance is None


class TestEntropyRows:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_scalar_entropy_bit_for_bit(self, k):
        # each row's entropy is the entropy of that row alone, zero entries
        # included, whatever K
        rng = np.random.default_rng(k)
        for concentration in (0.05, 1.0, 20.0):
            p = rng.dirichlet(np.full(k, concentration), size=400)
            p[rng.random(p.shape) < 0.3] = 0.0
            p[p.sum(axis=1) == 0.0, rng.integers(k)] = 1.0
            p /= p.sum(axis=1, keepdims=True)
            p[:k] = np.eye(k)  # one-hot rows: a single nonzero at each position
            h = predictive_entropy(p)
            for row, value in zip(p, h):
                assert value == predictive_entropy(row[None])[0]

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="lie in"):
            predictive_entropy(np.array([[0.5, 0.5], [1.2, -0.2]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            predictive_entropy(np.array([[0.5, 0.5], [0.5, 0.4]]))


class TestEnsemble:
    def test_single_member_identical_to_single_forward(self):
        model = kaiming_init((2, 16, 16, 2), seed=6)
        x = example_inputs(8, 5)
        a = ensemble_predict([model], x)
        b = single_forward(model, x)
        assert (a.mean_probs == b.mean_probs).all()
        assert (a.uncertainty == b.uncertainty).all()

    def test_identical_members_collapse(self):
        model = kaiming_init((2, 16, 16, 2), seed=7)
        x = example_inputs(6, 6)
        a = ensemble_predict([model, model.copy(), model.copy()], x)
        b = single_forward(model, x)
        np.testing.assert_allclose(a.mean_probs, b.mean_probs, atol=1e-15)

    def test_maximal_disagreement(self):
        peaked_0 = FixedLogitsModel([[500.0, 0.0]])
        peaked_1 = FixedLogitsModel([[0.0, 500.0]])
        out = ensemble_predict([peaked_0, peaked_1], example_inputs(4, 7))
        np.testing.assert_allclose(out.mean_probs, 0.5, atol=1e-12)
        np.testing.assert_allclose(out.uncertainty, np.log(2.0), atol=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(InvalidInputError):
            ensemble_predict([], example_inputs())

    def test_mismatched_dims_rejected(self):
        a = kaiming_init((2, 8, 8, 2), seed=8)
        b = kaiming_init((2, 8, 8, 3), seed=9)
        with pytest.raises(InvalidInputError):
            ensemble_predict([a, b], example_inputs())

    def test_mean_entropy_at_least_member_mean(self):
        # entropy of the mean >= mean of member entropies (concavity)
        models = [kaiming_init((2, 16, 16, 2), seed=s) for s in range(10, 15)]
        x = example_inputs(20, 8)
        out = ensemble_predict(models, x)
        member_h = np.mean([single_forward(m, x).uncertainty for m in models], axis=0)
        assert (out.uncertainty >= member_h - 1e-12).all()


class TestMcDropout:
    def test_alternating_passes_oracle(self, cpus):
        cpus(1)  # the stand-in scripts and counts its calls in this process
        model = FixedLogitsModel([[500.0, 0.0], [0.0, 500.0]])
        out = mc_dropout_predict(
            model, example_inputs(3, 9), passes=4, rng=np.random.default_rng(0)
        )
        np.testing.assert_allclose(out.mean_probs, 0.5, atol=1e-12)
        np.testing.assert_allclose(out.variance, 0.25, atol=1e-12)
        assert model.calls == 4

    def test_identical_passes_variance_is_tau_inv(self):
        model = kaiming_init((2, 16, 16, 2), seed=16, dropout=0.0)
        x = example_inputs(5, 10)
        out = mc_dropout_predict(model, x, passes=6, tau_inv=0.37)
        np.testing.assert_allclose(out.variance, 0.37, atol=1e-12)

    def test_identical_passes_zero_tau_inv(self):
        model = kaiming_init((2, 16, 16, 2), seed=17, dropout=0.0)
        out = mc_dropout_predict(model, example_inputs(5, 11), passes=3)
        np.testing.assert_allclose(out.variance, 0.0, atol=1e-12)

    def test_seeded_reproducibility(self):
        model = kaiming_init((2, 32, 32, 2), seed=18, dropout=0.3)
        x = example_inputs(6, 12)
        a = mc_dropout_predict(model, x, passes=10, rng=np.random.default_rng(42))
        b = mc_dropout_predict(model, x, passes=10, rng=np.random.default_rng(42))
        assert (a.mean_probs == b.mean_probs).all()
        assert (a.variance == b.variance).all()

    def test_requires_rng_when_dropout_positive(self):
        model = kaiming_init((2, 8, 8, 2), seed=19, dropout=0.2)
        with pytest.raises(InvalidInputError):
            mc_dropout_predict(model, example_inputs(), passes=2)

    def test_validates_arguments(self):
        model = kaiming_init((2, 8, 8, 2), seed=20, dropout=0.0)
        with pytest.raises(InvalidInputError):
            mc_dropout_predict(model, example_inputs(), passes=0)
        with pytest.raises(InvalidInputError):
            mc_dropout_predict(model, example_inputs(), passes=2, tau_inv=-1.0)

    def test_variance_nonnegative(self):
        model = kaiming_init((2, 32, 32, 2), seed=21, dropout=0.5)
        out = mc_dropout_predict(
            model, example_inputs(20, 13), passes=20, rng=np.random.default_rng(1)
        )
        assert (out.variance >= -1e-12).all()


def serial_mc_dropout(model, inputs, passes, tau_inv, rng):
    """The pass loop as it ran before passes could fork: each pass draws
    its masks where the pass before it stopped."""
    total = np.zeros((len(inputs), model.dims[3]))
    total_sq = np.zeros_like(total)
    for _ in range(passes):
        probs = softmax(model.predict_logits(inputs, dropout_active=True, rng=rng))
        total += probs
        total_sq += probs * probs
    mean = total / passes
    return mean, predictive_entropy(mean), tau_inv + total_sq / passes - mean * mean


def rng_for(seed):
    return None if seed is None else np.random.default_rng([seed, 201])


def forking_rows(passes):
    """The fewest rows with which ``passes`` MC-dropout passes fork."""
    return -(-MC_FORK_MIN_ROW_PASSES // passes)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestMcDropoutPasses:
    @pytest.mark.parametrize("passes, rows, forks", [
        (1, forking_rows(7), 0),
        (7, forking_rows(7) - 1, 0),
        (7, forking_rows(7), 2),
    ])
    @pytest.mark.parametrize("dropout, seed", [(0.3, 42), (0.0, None)])
    def test_passes_match_the_serial_stream_on_any_cpu_count(self, cpus, passes, rows,
                                                             forks, dropout, seed):
        model = kaiming_init((2, 16, 8, 2), seed=30, dropout=dropout)
        x = example_inputs(rows, 14)
        runs = {}
        for n_cpus in (1, 2):
            forked = cpus(n_cpus)
            rng = rng_for(seed)
            out = mc_dropout_predict(model, x, passes, tau_inv=0.25, rng=rng)
            runs[n_cpus] = ([a.tobytes() for a in (out.mean_probs, out.uncertainty,
                                                    out.variance)],
                            rng and rng.bit_generator.state)
        assert len(forked) == forks
        assert runs[2] == runs[1]
        rng = rng_for(seed)
        oracle = serial_mc_dropout(model, x, passes, 0.25, rng)
        assert runs[1] == ([a.tobytes() for a in oracle], rng and rng.bit_generator.state)

    def test_rng_keeps_its_buffered_half(self, cpus):
        # a 32-bit draw leaves half a 64-bit output buffered; float draws
        # never touch it, so the passes must hand it back unchanged
        model = kaiming_init((2, 8, 8, 2), seed=31, dropout=0.5)
        x = example_inputs(forking_rows(3), 15)
        ends = []
        for run in (lambda rng: mc_dropout_predict(model, x, 3, rng=rng),
                    lambda rng: serial_mc_dropout(model, x, 3, 0.0, rng)):
            forked = cpus(2)
            rng = np.random.default_rng(5)
            rng.integers(10, dtype=np.uint32)
            run(rng)
            ends.append(rng.bit_generator.state)
        assert len(forked) == 2
        assert ends[0]["has_uint32"] == 1
        assert ends[0] == ends[1]

    def test_non_finite_pass_in_a_worker_is_divergence(self, cpus, deadline):
        model = kaiming_init((2, 8, 8, 2), seed=32, dropout=0.2)
        model.b3[0] = np.nan
        forked = cpus(2)
        with pytest.raises(TrainingDivergenceError, match="non-finite"):
            mc_dropout_predict(model, example_inputs(forking_rows(4)), passes=4,
                               rng=np.random.default_rng(0))
        assert len(forked) == 2

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox])
    def test_rejects_a_generator_that_is_not_pcg64(self, bits):
        model = kaiming_init((2, 8, 8, 2), seed=33, dropout=0.2)
        with pytest.raises(InvalidInputError, match="PCG64"):
            mc_dropout_predict(model, example_inputs(), passes=2,
                               rng=np.random.Generator(bits(0)))


class TestTta:
    def test_zero_repeats_identical_to_single_forward(self):
        model = kaiming_init((2, 16, 16, 2), seed=22)
        x = example_inputs(7, 14)
        policy = PerturbationPolicy(noise_sigma=0.1)
        a = tta_predict(model, x, policy, repeats=0, rng=np.random.default_rng(0))
        b = single_forward(model, x)
        assert (a.mean_probs == b.mean_probs).all()
        assert (a.uncertainty == b.uncertainty).all()

    def test_identity_policy_any_repeats(self):
        model = kaiming_init((2, 16, 16, 2), seed=23)
        x = example_inputs(7, 15)
        out = tta_predict(model, x, PerturbationPolicy(), repeats=5)
        ref = single_forward(model, x)
        np.testing.assert_allclose(out.mean_probs, ref.mean_probs, atol=1e-15)

    def test_seeded_reproducibility(self):
        model = kaiming_init((2, 16, 16, 2), seed=24)
        x = example_inputs(6, 16)
        policy = PerturbationPolicy(noise_sigma=0.2, scale_jitter=0.1)
        a = tta_predict(model, x, policy, repeats=8, rng=np.random.default_rng(7))
        b = tta_predict(model, x, policy, repeats=8, rng=np.random.default_rng(7))
        assert (a.mean_probs == b.mean_probs).all()

    def test_noise_policy_requires_rng(self):
        model = kaiming_init((2, 8, 8, 2), seed=25)
        with pytest.raises(InvalidInputError):
            tta_predict(model, example_inputs(), PerturbationPolicy(0.1), repeats=2)

    def test_negative_repeats_rejected(self):
        model = kaiming_init((2, 8, 8, 2), seed=26)
        with pytest.raises(InvalidInputError):
            tta_predict(model, example_inputs(), PerturbationPolicy(), repeats=-1)

    def test_rows_remain_distributions(self):
        model = kaiming_init((2, 16, 16, 3), seed=27)
        policy = PerturbationPolicy(noise_sigma=0.3)
        out = tta_predict(
            model, example_inputs(10, 17), policy, repeats=4, rng=np.random.default_rng(3)
        )
        np.testing.assert_allclose(out.mean_probs.sum(axis=1), 1.0, atol=1e-12)
        assert (out.mean_probs >= 0.0).all()
