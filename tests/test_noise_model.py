"""Beta-mixture noise model: densities, EM recovery and posteriors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from mixboot import _kernels
from mixboot.errors import InvalidInputError
from mixboot.noise_model import (
    SHAPE_MAX,
    SHAPE_MIN,
    BetaMixtureModel,
    fit_bmm,
    noisy_posterior,
    normalize_losses,
)

OPEN_EPS = 1e-6


def beta_pdf(x, alpha, beta):
    """The Beta density over ``_kernels.log_beta``, the E-step's normalizer."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp((alpha - 1.0) * np.log(x) + (beta - 1.0) * np.log1p(-x)
                  - _kernels.log_beta(alpha, beta))


def log_likelihood(model, x):
    """Observed-data log-likelihood of ``x`` under the mixture."""
    return _kernels.bmm_e_step(x, model.alpha_1, model.beta_1, model.alpha_2,
                               model.beta_2, model.pi)[1]


def mixture_draws(seed, n=5000):
    """Half Beta(2,8), half Beta(8,2), clipped into the open interval."""
    rng = np.random.default_rng(seed)
    pick_hi = rng.random(n) < 0.5
    lo = rng.beta(2.0, 8.0, size=n)
    hi = rng.beta(8.0, 2.0, size=n)
    x = np.where(pick_hi, hi, lo)
    return np.clip(x, OPEN_EPS, 1.0 - OPEN_EPS)


class TestNormalizeLosses:
    def test_linear_rescale_with_clamp(self):
        out = normalize_losses(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [1e-4, 0.5, 1.0 - 1e-4], atol=1e-15)

    def test_constant_maps_to_half(self):
        out = normalize_losses(np.array([3.7, 3.7, 3.7]))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5])

    def test_endpoints_clamped(self):
        out = normalize_losses(np.array([1.0, 3.0]))
        np.testing.assert_allclose(out, [1e-4, 1.0 - 1e-4], atol=1e-15)

    def test_needs_two_values(self):
        with pytest.raises(InvalidInputError):
            normalize_losses(np.array([1.0]))


class TestBetaPdf:
    def test_uniform_density(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            assert abs(beta_pdf(x, 1.0, 1.0) - 1.0) <= 1e-12

    def test_symmetric_shape_oracle(self):
        # closed form 6 x (1 - x) at x = 0.5
        assert abs(beta_pdf(0.5, 2.0, 2.0) - 1.5) <= 1e-9

    def test_monomial_shape_oracle(self):
        # closed form 3 x^2 at x = 0.5
        assert abs(beta_pdf(0.5, 3.0, 1.0) - 0.75) <= 1e-9

    def test_matches_scipy_grid(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0.01, 0.99, size=50)
        for a, b in ((2.0, 8.0), (8.0, 2.0), (0.5, 0.5), (5.0, 5.0)):
            ours = beta_pdf(grid, a, b)
            ref = stats.beta.pdf(grid, a, b)
            np.testing.assert_allclose(ours, ref, rtol=1e-9)


class TestModelValidation:
    def test_component_order_enforced(self):
        with pytest.raises(InvalidInputError):
            BetaMixtureModel(8.0, 2.0, 2.0, 8.0, 0.5)

    def test_pi_open_interval(self):
        with pytest.raises(InvalidInputError):
            BetaMixtureModel(2.0, 8.0, 8.0, 2.0, 1.0)

    def test_positive_shapes(self):
        with pytest.raises(InvalidInputError):
            BetaMixtureModel(0.0, 8.0, 8.0, 2.0, 0.5)


class TestFitRecovery:
    def test_recovers_known_mixture_five_seeds(self):
        for seed in range(5):
            model = fit_bmm(mixture_draws(seed))
            assert abs(model.mean_1 - 0.2) <= 0.03
            assert abs(model.mean_2 - 0.8) <= 0.03
            assert abs(model.pi - 0.5) <= 0.05

    def test_fit_is_deterministic(self):
        x = mixture_draws(0)
        m1 = fit_bmm(x)
        m2 = fit_bmm(x)
        assert (m1.alpha_1, m1.beta_1, m1.alpha_2, m1.beta_2, m1.pi) == (
            m2.alpha_1,
            m2.beta_1,
            m2.alpha_2,
            m2.beta_2,
            m2.pi,
        )

    def test_tight_clusters_keep_their_means(self):
        # shape clamping must not drag near-degenerate components toward 0.5
        rng = np.random.default_rng(2)
        lo = np.clip(rng.normal(0.1, 0.004, size=500), OPEN_EPS, 1 - OPEN_EPS)
        hi = np.clip(rng.normal(0.9, 0.004, size=500), OPEN_EPS, 1 - OPEN_EPS)
        model = fit_bmm(np.concatenate([lo, hi]))
        assert abs(model.pi - 0.5) <= 0.05
        assert abs(model.mean_1 - 0.1) <= 0.05
        assert abs(model.mean_2 - 0.9) <= 0.05

    def test_all_equal_is_uninformative(self):
        model = fit_bmm(np.full(20, 0.5))
        assert model.uninformative
        assert (noisy_posterior(model, np.array([0.01, 0.99])) == 0.5).all()

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            fit_bmm(np.full(9, 0.5))
        with pytest.raises(InvalidInputError):
            fit_bmm(np.linspace(0.0, 0.9, 20))  # contains 0
        with pytest.raises(InvalidInputError):
            fit_bmm(mixture_draws(0), iterations=0)

    def test_per_sample_log_likelihood_nondecreasing(self):
        # the moment-matching M-step is not an exact maximizer, so the EM
        # objective may dip by amounts that vanish per sample; allow 1e-3
        for seed in range(5):
            x = mixture_draws(seed)
            lls = [
                log_likelihood(fit_bmm(x, iterations=k), x) / x.shape[0]
                for k in range(1, 9)
            ]
            deltas = np.diff(lls)
            assert deltas.min() >= -1e-3


open_unit_losses = hnp.arrays(
    np.float64,
    st.integers(10, 60),
    elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


class TestFitProperties:
    @settings(deadline=None)
    @given(open_unit_losses)
    def test_ordered_bounded_fit_and_posterior(self, x):
        model = fit_bmm(x)
        assert model.mean_1 <= model.mean_2
        for shape in (model.alpha_1, model.beta_1, model.alpha_2, model.beta_2):
            assert SHAPE_MIN <= shape <= SHAPE_MAX
        assert 0.0 < model.pi < 1.0
        post = noisy_posterior(model, x)
        assert ((post >= 0.0) & (post <= 1.0)).all()

    @settings(deadline=None)
    @given(open_unit_losses.map(lambda x: np.full_like(x, x[0])))
    def test_constant_losses_give_exactly_half(self, x):
        model = fit_bmm(x)
        assert model.uninformative
        assert (noisy_posterior(model, x) == 0.5).all()


class TestNoisyPosterior:
    def test_low_mode_posterior_small(self):
        model = fit_bmm(mixture_draws(0))
        # mode of the fitted clean component; shapes exceed 1 for this fit
        mode = (model.alpha_1 - 1.0) / (model.alpha_1 + model.beta_1 - 2.0)
        assert 0.0 < mode < 1.0
        assert noisy_posterior(model, np.array([mode]))[0] < 0.1

    def test_symmetric_model_at_half(self):
        model = BetaMixtureModel(2.0, 8.0, 8.0, 2.0, 0.5)
        assert abs(noisy_posterior(model, np.array([0.5]))[0] - 0.5) <= 1e-12

    def test_monotone_in_loss_for_separated_fit(self):
        model = fit_bmm(mixture_draws(1))
        grid = np.linspace(0.02, 0.98, 97)
        post = noisy_posterior(model, grid)
        assert np.all(np.diff(post) >= -1e-12)

    def test_array_and_scalar_agree(self):
        # each element's posterior is that of its 1-element array, bit for bit
        model = fit_bmm(mixture_draws(0))
        arr = noisy_posterior(model, np.array([0.3, 0.7]))
        assert arr.shape == (2,)
        assert noisy_posterior(model, np.array([0.3]))[0] == arr[0]

    def test_domain_enforced(self):
        model = BetaMixtureModel(2.0, 8.0, 8.0, 2.0, 0.5)
        with pytest.raises(InvalidInputError):
            noisy_posterior(model, np.array([0.5, 0.0]))
