"""Mixup coefficient sampling, pair construction and input perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mixboot import augment
from mixboot.augment import (
    GAMMA_EPS,
    MAX_SCALE_JITTER,
    PerturbationPolicy,
    beta_from_gammas,
    mixup_batch,
    perturb,
)
from mixboot.errors import InvalidInputError
from oracles import reference_mixup_batch

# closed form std of Beta(a, a): sqrt(1 / (4 (2a + 1)))
GAMMA_STD_ALPHA_32 = 0.06201736729460423


def draw_gammas(alpha, n, seed):
    # equal bit for bit to n one-draw calls on the same stream
    # (TestMixupMatchesLoop::test_scalar_draws_equal_one_batch_draw)
    return beta_from_gammas(np.random.default_rng(seed).gamma(alpha, size=(n, 2)))


class TestSampleGamma:
    def test_open_interval(self):
        g = draw_gammas(0.3, 2000, 0)
        assert g.min() > 0.0
        assert g.max() < 1.0

    def test_mean_half_any_alpha(self):
        for i, alpha in enumerate((0.3, 1.0, 8.0, 32.0)):
            g = draw_gammas(alpha, 100_000, 10 + i)
            assert abs(g.mean() - 0.5) <= 0.005

    def test_alpha_one_is_uniform(self):
        g = draw_gammas(1.0, 100_000, 20)
        ks = stats.kstest(g, "uniform").statistic
        assert ks < 0.01

    def test_alpha_32_std_oracle(self):
        g = draw_gammas(32.0, 100_000, 30)
        assert abs(g.std() - GAMMA_STD_ALPHA_32) <= 0.005

    def test_small_alpha_spreads_wide(self):
        # Beta(0.3, 0.3) is bimodal near the endpoints
        g = draw_gammas(0.3, 100_000, 40)
        assert g.std() > draw_gammas(8.0, 100_000, 41).std()

    def test_alpha_positive_required(self):
        with pytest.raises(InvalidInputError):
            mixup_batch(np.zeros((2, 1)), 0.0, np.random.default_rng(0))

    def test_seeded_stream_reproduces(self):
        assert draw_gammas(0.3, 50, 5).tolist() == draw_gammas(0.3, 50, 5).tolist()


@pytest.fixture
def pin_gammas(monkeypatch):
    """``pin(value)`` makes mixup_batch take every coefficient as ``value``,
    the endpoints 0 and 1 included, which sampling never returns; the
    partner permutation and the Gamma draws are still drawn."""
    def pin(value):
        monkeypatch.setattr(augment, "beta_from_gammas",
                            lambda draws: np.full(len(draws), float(value)))
    return pin


def loop_mixup(inputs, alpha, rng, fixed_gamma=None):
    """The per-pair loop that mixup_batch replaced, kept as its reference."""
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0]
    partners = rng.permutation(n)
    mixed, gammas = [], []
    for i in range(n):
        g1 = rng.gamma(alpha)
        g2 = rng.gamma(alpha)
        if fixed_gamma is not None:
            gamma = float(fixed_gamma)
        else:
            total = g1 + g2
            if total == 0.0:
                gamma = 0.5
            else:
                gamma = float(np.clip(g1 / total, GAMMA_EPS, 1.0 - GAMMA_EPS))
        mixed.append(gamma * x[i] + (1.0 - gamma) * x[int(partners[i])])
        gammas.append(gamma)
    return np.stack(mixed), partners, np.array(gammas)


class TestMixupBatch:
    def test_fixed_gamma_one_returns_inputs(self, pin_gammas):
        pin_gammas(1.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 2))
        mixed, _, gammas = mixup_batch(x, 0.3, rng)
        assert (mixed == x).all()
        assert (gammas == 1.0).all()

    def test_identical_inputs_fixed_point(self):
        x = np.tile(np.array([1.5, -2.0]), (5, 1))
        rng = np.random.default_rng(1)
        mixed, _, _ = mixup_batch(x, 0.3, rng)
        for row in mixed:
            np.testing.assert_allclose(row, [1.5, -2.0], atol=1e-15)

    def test_convex_combination_hand_case(self, pin_gammas):
        pin_gammas(0.25)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(2)
        mixed, partners, _ = mixup_batch(x, 0.3, rng)
        for i, j in enumerate(partners):
            np.testing.assert_allclose(
                mixed[i], 0.25 * x[i] + 0.75 * x[j], atol=1e-15
            )

    def test_rows_track_sources(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 2))
        mixed, partners, gammas = mixup_batch(x, 0.3, rng)
        for i, (j, g) in enumerate(zip(partners, gammas)):
            assert (mixed[i] == g * x[i] + (1.0 - g) * x[j]).all()

    def test_partner_is_permutation(self):
        rng = np.random.default_rng(4)
        _, partners, _ = mixup_batch(np.zeros((8, 2)), 0.3, rng)
        assert sorted(partners.tolist()) == list(range(8))

    def test_lone_row_passes_unmixed(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        x = np.array([[1.5, -2.0]])
        mixed, partners, gammas = mixup_batch(x, 0.3, rng)
        assert (mixed == x).all()
        assert partners.tolist() == [0]
        assert gammas.tolist() == [1.0]
        assert rng.bit_generator.state == state


class TestMixupMatchesLoop:
    """The batch form reproduces the per-pair loop bit for bit, stream included."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 32.0])
    @pytest.mark.parametrize("shape", [(32, 2), (7, 3), (5,)])
    def test_drawn_gamma(self, seed, alpha, shape):
        self.check(seed, alpha, shape, None)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("fixed_gamma", [0.0, 0.25, 1.0])
    def test_fixed_gamma(self, pin_gammas, seed, fixed_gamma):
        pin_gammas(fixed_gamma)
        self.check(seed, 0.3, (32, 2), fixed_gamma)

    def test_underflowing_gamma_sum_gets_half(self):
        # Gamma(1e-3) draws underflow to 0 often enough that some rows
        # take the g1 + g2 == 0 branch
        gammas = self.check(5, 1e-3, (64, 2), None)
        assert (gammas == 0.5).any()

    @staticmethod
    def check(seed, alpha, shape, fixed_gamma):
        x = np.random.default_rng(1000 + seed).normal(size=shape)
        rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        mixed, partners, gammas = mixup_batch(x, alpha, rng_batch)
        ref_mixed, ref_partners, ref_gammas = loop_mixup(x, alpha, rng_loop, fixed_gamma)
        assert mixed.shape == ref_mixed.shape
        assert (mixed == ref_mixed).all()
        assert (partners == ref_partners).all()
        assert (gammas == ref_gammas).all()
        assert rng_batch.bit_generator.state == rng_loop.bit_generator.state
        return gammas

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 32.0])
    def test_scalar_draws_equal_one_batch_draw(self, alpha):
        rng_scalar, rng_batch = np.random.default_rng(11), np.random.default_rng(11)
        scalar = [beta_from_gammas(rng_scalar.gamma(alpha, size=(1, 2)))[0]
                  for _ in range(40)]
        assert scalar == beta_from_gammas(rng_batch.gamma(alpha, size=(40, 2))).tolist()
        assert rng_scalar.bit_generator.state == rng_batch.bit_generator.state


class TestMixupBatches:
    """One call over an epoch's rows in batches of ``batch_size`` gives the
    bits of one call per batch, concatenated, with the partners offset to
    epoch rows, and leaves the generator where those calls leave it."""

    @settings(deadline=None)
    @given(n=st.integers(1, 80), batch_size=st.integers(1, 40),
           alpha=st.sampled_from([1e-3, 0.3, 1.0, 32.0]), d=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_one_call_per_batch(self, n, batch_size, alpha, d, seed):
        x = np.random.default_rng(seed).normal(size=(n, d))
        rng, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        mixed, partners, gammas = mixup_batch(x, alpha, rng, batch_size)
        parts = [reference_mixup_batch(x[s:s + batch_size], alpha, rng_ref)
                 for s in range(0, n, batch_size)]
        assert (mixed == np.concatenate([p[0] for p in parts])).all()
        assert (partners == np.concatenate(
            [p[1] + s for p, s in zip(parts, range(0, n, batch_size))])).all()
        assert (gammas == np.concatenate([p[2] for p in parts])).all()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("n,batch_size", [(100, 33), (65, 32), (5, 1), (1, 32)])
    def test_one_row_batches_pass_unmixed(self, n, batch_size):
        x = np.random.default_rng(0).normal(size=(n, 2))
        mixed, partners, gammas = mixup_batch(x, 0.3, np.random.default_rng(1),
                                              batch_size)
        # the last batch, or with batch_size 1 every batch
        lone = np.arange(n) if batch_size == 1 else np.arange(n - (n % batch_size == 1), n)
        assert (mixed[lone] == x[lone]).all()
        assert (partners[lone] == lone).all()
        assert (gammas[lone] == 1.0).all()

    def test_none_is_one_batch(self):
        x = np.random.default_rng(2).normal(size=(40, 2))
        whole = mixup_batch(x, 0.3, np.random.default_rng(3))
        for got, want in zip(whole, mixup_batch(x, 0.3, np.random.default_rng(3), 40)):
            assert (got == want).all()


class TestPerturb:
    def test_identity_policy(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        out = perturb(x, PerturbationPolicy(), np.random.default_rng(1))
        assert (out == x).all()
        assert out is not x  # a copy, never a view

    def test_noise_std_oracle(self):
        x = np.zeros(100_000)
        policy = PerturbationPolicy(noise_sigma=0.1, scale_jitter=0.0)
        out = perturb(x, policy, np.random.default_rng(5))
        assert abs((out - x).std() - 0.1) <= 0.002

    def test_scale_jitter_on_zeros_is_identity(self):
        x = np.zeros((50, 4))
        policy = PerturbationPolicy(noise_sigma=0.0, scale_jitter=0.3)
        out = perturb(x, policy, np.random.default_rng(6))
        assert (out == 0.0).all()

    def test_jitter_bounded(self):
        x = np.ones(10_000)
        policy = PerturbationPolicy(noise_sigma=0.0, scale_jitter=0.2)
        out = perturb(x, policy, np.random.default_rng(7))
        assert out.min() >= 0.8
        assert out.max() <= 1.2

    def test_unbiased(self):
        x = np.full(200_000, 2.0)
        policy = PerturbationPolicy(noise_sigma=0.1, scale_jitter=0.1)
        out = perturb(x, policy, np.random.default_rng(8))
        assert abs(out.mean() - 2.0) <= 0.005

    def test_negative_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            PerturbationPolicy(noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma, jitter", [
        (np.inf, 0.0), (np.nan, 0.0), (0.0, np.nan),
        (0.0, np.nextafter(MAX_SCALE_JITTER, np.inf)),
    ])
    def test_unusable_parameters_rejected(self, sigma, jitter):
        # rng.uniform(-j, j) raises OverflowError once 2 * j overflows
        with pytest.raises(InvalidInputError):
            PerturbationPolicy(noise_sigma=sigma, scale_jitter=jitter)

    def test_largest_jitter_draws(self):
        policy = PerturbationPolicy(scale_jitter=MAX_SCALE_JITTER)
        out = perturb(np.zeros(4), policy, np.random.default_rng(0))
        assert (out == 0.0).all()

    def test_seeded_reproducibility(self):
        x = np.linspace(-1, 1, 64).reshape(8, 8)
        policy = PerturbationPolicy(noise_sigma=0.05, scale_jitter=0.1)
        a = perturb(x, policy, np.random.default_rng(9))
        b = perturb(x, policy, np.random.default_rng(9))
        assert (a == b).all()
