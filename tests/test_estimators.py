"""Uncertainty estimators: single pass, ensembles, MC dropout and TTA."""

import os

import numpy as np
import pytest

import mixboot.estimators as estimators
import mixboot.mlp as mlp
from mixboot.augment import PerturbationPolicy, perturb
from mixboot.errors import InvalidInputError, TrainingDivergenceError
from mixboot.estimators import (
    MC_FORK_MIN_ROW_PASSES,
    ensemble_predict,
    mc_dropout_predict,
    tta_predict,
)
from mixboot.jobs import run_jobs
from mixboot.losses import softmax
from mixboot.mlp import PASS_ROW_BLOCK, forward, kaiming_init
from mixboot.prob_metrics import PredictionBatch
from oracles import reference_entropy, single_forward


class FixedLogitsModel:
    """Duck-typed ensemble member emitting one constant logits row."""

    def __init__(self, row, k=2):
        self.row = np.asarray(row, dtype=np.float64)
        self.dims = (2, 1, 1, k)

    def predict_logits(self, inputs):
        return np.tile(self.row, (inputs.shape[0], 1))


def entropy(probs):
    """The predictive entropy of two-class rows, as a run computes it."""
    return PredictionBatch(probs, np.zeros(len(probs), dtype=np.int64)).uncertainty


def example_inputs(n=5, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 2))


class TestSingleForward:
    """The ``single`` estimator: a one-member ensemble."""

    def test_deterministic(self):
        model = kaiming_init((2, 16, 16, 2), seed=0)
        x = example_inputs()
        a, b = ensemble_predict([model], x), ensemble_predict([model], x)
        assert (a == b).all()
        assert (reference_entropy(a) == reference_entropy(b)).all()

    def test_zero_logits_give_ln2(self):
        model = kaiming_init((2, 16, 16, 2), seed=1)  # zero biases
        out = ensemble_predict([model], np.zeros((3, 2)))
        np.testing.assert_allclose(reference_entropy(out), np.log(2.0), atol=1e-15)

    def test_entropy_bounds(self):
        model = kaiming_init((2, 16, 16, 3), seed=2)
        out = ensemble_predict([model], example_inputs(50, 3))
        assert (reference_entropy(out) >= 0.0).all()
        assert (reference_entropy(out) <= np.log(3.0) + 1e-12).all()

    def test_uncertainty_matches_scalar_entropy(self):
        model = kaiming_init((2, 8, 8, 2), seed=3)
        out = ensemble_predict([model], example_inputs(10, 4))
        for row, h in zip(out, entropy(out)):
            assert entropy(row[None])[0] == h

    def test_single_row_input(self):
        model = kaiming_init((2, 8, 8, 2), seed=4)
        out = ensemble_predict([model], np.array([[0.1, -0.2]]))
        assert out.shape == (1, 2)


class TestEntropyRows:
    @pytest.mark.parametrize("seed", range(2, 10))
    def test_matches_scalar_entropy_bit_for_bit(self, seed):
        # each row's entropy is the entropy of that row alone, zero entries
        # included
        rng = np.random.default_rng(seed)
        for concentration in (0.05, 1.0, 20.0):
            p = rng.dirichlet(np.full(2, concentration), size=400)
            p[rng.random(p.shape) < 0.3] = 0.0
            p[p.sum(axis=1) == 0.0, rng.integers(2)] = 1.0
            p /= p.sum(axis=1, keepdims=True)
            p[:2] = np.eye(2)  # one-hot rows: a single nonzero at each position
            h = entropy(p)
            for row, value in zip(p, h):
                assert value == entropy(row[None])[0]

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="lie in"):
            entropy(np.array([[0.5, 0.5], [1.2, -0.2]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            entropy(np.array([[0.5, 0.5], [0.5, 0.4]]))


class TestEnsemble:
    def test_single_member_identical_to_single_forward(self):
        model = kaiming_init((2, 16, 16, 2), seed=6)
        x = example_inputs(8, 5)
        assert ensemble_predict([model], x).tobytes() == single_forward(model, x).tobytes()

    def test_members_fold_like_a_serial_loop(self):
        models = [kaiming_init((2, 16, 8, 3), seed=s) for s in range(40, 45)]
        x = example_inputs(30, 9)
        total = np.zeros((30, 3))
        for m in models:
            total += softmax(m.predict_logits(x))
        mean = total / len(models)
        assert ensemble_predict(models, x).tobytes() == mean.tobytes()

    def test_identical_members_collapse(self):
        model = kaiming_init((2, 16, 16, 2), seed=7)
        x = example_inputs(6, 6)
        a = ensemble_predict([model, model.copy(), model.copy()], x)
        b = single_forward(model, x)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_maximal_disagreement(self):
        peaked_0 = FixedLogitsModel([500.0, 0.0])
        peaked_1 = FixedLogitsModel([0.0, 500.0])
        out = ensemble_predict([peaked_0, peaked_1], example_inputs(4, 7))
        np.testing.assert_allclose(out, 0.5, atol=1e-12)
        np.testing.assert_allclose(reference_entropy(out), np.log(2.0), atol=1e-12)

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
        member_h = np.mean([reference_entropy(single_forward(m, x)) for m in models],
                           axis=0)
        assert (reference_entropy(out) >= member_h - 1e-12).all()


class TestMcDropout:
    def test_alternating_passes_oracle(self, cpus, monkeypatch):
        cpus(1)  # the scripted pass counts its calls in this process
        rows = [np.array([500.0, 0.0]), np.array([0.0, 500.0])]
        calls = []

        def scripted_pass(model, x, rng, buffers, layer1):
            calls.append(len(x))
            return np.tile(rows[(len(calls) - 1) % 2], (len(x), 1)), None, None

        monkeypatch.setattr(mlp, "forward", scripted_pass)
        model = kaiming_init((2, 4, 4, 2), seed=15, dropout=0.5)
        out = mc_dropout_predict(model, example_inputs(3, 9), passes=4, seed=0)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)
        assert calls == [3] * 4

    def test_seeded_reproducibility(self):
        model = kaiming_init((2, 32, 32, 2), seed=18, dropout=0.3)
        x = example_inputs(6, 12)
        a = mc_dropout_predict(model, x, passes=10, seed=42)
        b = mc_dropout_predict(model, x, passes=10, seed=42)
        assert (a == b).all()

    def test_validates_arguments(self):
        model = kaiming_init((2, 8, 8, 2), seed=20, dropout=0.0)
        with pytest.raises(InvalidInputError):
            mc_dropout_predict(model, example_inputs(), passes=0, seed=0)


def serial_mc_dropout(model, inputs, passes, seed):
    """The pass loop as it ran before passes could fork: each pass draws
    its masks where the pass before it stopped."""
    rng = np.random.default_rng(seed)
    total = np.zeros((len(inputs), model.dims[3]))
    for _ in range(passes):
        total += softmax(forward(model, inputs, rng)[0])
    return total / passes


def seed_for(seed):
    # None: no seed at all, which a rate of 0 never draws from
    return None if seed is None else [seed, 201]


def forking_rows(passes):
    """The fewest rows with which ``passes`` MC-dropout passes fork."""
    return -(-MC_FORK_MIN_ROW_PASSES // passes)


def blocks_past_forking(passes):
    """One row past a whole number of ``PASS_ROW_BLOCK`` blocks, and enough
    rows for ``passes`` passes to fork."""
    return PASS_ROW_BLOCK * -(-forking_rows(passes) // PASS_ROW_BLOCK) + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestMcDropoutPasses:
    @pytest.mark.parametrize("passes, rows, forks", [
        (1, forking_rows(7), 0),
        (7, forking_rows(7) - 1, 0),
        (7, forking_rows(7), 2),
        (4, blocks_past_forking(4), 2),
    ])
    @pytest.mark.parametrize("dropout, seed", [(0.3, 42), (0.0, None)])
    def test_passes_match_the_serial_stream_on_any_cpu_count(self, cpus, passes, rows,
                                                             forks, dropout, seed):
        model = kaiming_init((2, 16, 8, 2), seed=30, dropout=dropout)
        x = example_inputs(rows, 14)
        runs = {}
        for n_cpus in (1, 2):
            forked = cpus(n_cpus)
            runs[n_cpus] = mc_dropout_predict(model, x, passes, seed_for(seed)).tobytes()
        assert len(forked) == forks
        assert runs[2] == runs[1]
        assert runs[1] == serial_mc_dropout(model, x, passes, seed_for(seed)).tobytes()

    def test_forked_passes_send_no_rows_back(self, cpus, monkeypatch):
        # each pass writes its rows into the shared array and returns None
        results = []

        def recording_run_jobs(fn, jobs):
            results.extend(run_jobs(fn, jobs))
            return results

        monkeypatch.setattr(estimators, "run_jobs", recording_run_jobs)
        model = kaiming_init((2, 16, 8, 2), seed=31, dropout=0.3)
        x = example_inputs(forking_rows(4), 15)
        forked = cpus(2)
        out = mc_dropout_predict(model, x, 4, seed_for(5))
        assert len(forked) == 2
        assert results == [None] * 4
        assert out.tobytes() == serial_mc_dropout(model, x, 4, seed_for(5)).tobytes()

    def test_non_finite_pass_in_a_worker_is_divergence(self, cpus, deadline):
        model = kaiming_init((2, 8, 8, 2), seed=32, dropout=0.2)
        model.b3[0] = np.nan
        forked = cpus(2)
        with pytest.raises(TrainingDivergenceError, match="non-finite"):
            mc_dropout_predict(model, example_inputs(forking_rows(4)), passes=4, seed=0)
        assert len(forked) == 2


class TestTta:
    def test_zero_repeats_identical_to_single_forward(self):
        model = kaiming_init((2, 16, 16, 2), seed=22)
        x = example_inputs(7, 14)
        policy = PerturbationPolicy(noise_sigma=0.1)
        a = tta_predict(model, x, policy, repeats=0, seed=0)
        assert a.tobytes() == single_forward(model, x).tobytes()

    def test_identity_policy_any_repeats(self):
        model = kaiming_init((2, 16, 16, 2), seed=23)
        x = example_inputs(7, 15)
        out = tta_predict(model, x, PerturbationPolicy(), repeats=5, seed=0)
        ref = single_forward(model, x)
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_seeded_reproducibility(self):
        model = kaiming_init((2, 16, 16, 2), seed=24)
        x = example_inputs(6, 16)
        policy = PerturbationPolicy(noise_sigma=0.2, scale_jitter=0.1)
        a = tta_predict(model, x, policy, repeats=8, seed=7)
        b = tta_predict(model, x, policy, repeats=8, seed=7)
        assert (a == b).all()

    @pytest.mark.parametrize("repeats", [1, 5])
    def test_repeats_fold_like_a_serial_loop(self, repeats):
        model = kaiming_init((2, 16, 8, 2), seed=28)
        x = example_inputs(40, 18)
        policy = PerturbationPolicy(noise_sigma=0.2, scale_jitter=0.1)
        rng = np.random.default_rng([3, 202])
        total = np.zeros((40, 2))
        for _ in range(repeats):
            total += softmax(model.predict_logits(perturb(x, policy, rng)))
        mean = total / repeats
        out = tta_predict(model, x, policy, repeats, seed=[3, 202])
        assert out.tobytes() == mean.tobytes()

    def test_negative_repeats_rejected(self):
        model = kaiming_init((2, 8, 8, 2), seed=26)
        with pytest.raises(InvalidInputError):
            tta_predict(model, example_inputs(), PerturbationPolicy(), repeats=-1, seed=0)

    def test_rows_remain_distributions(self):
        model = kaiming_init((2, 16, 16, 3), seed=27)
        policy = PerturbationPolicy(noise_sigma=0.3)
        out = tta_predict(model, example_inputs(10, 17), policy, repeats=4, seed=3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0.0).all()
