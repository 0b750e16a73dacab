"""Calibration and discrimination metrics against hand/brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from mixboot.errors import InvalidInputError, UndefinedMetricError
from mixboot.losses import softmax
from mixboot.prob_metrics import (
    MAX_BINS,
    PredictionBatch,
    accuracy,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood_binary,
    rank_average,
    reliability_bins,
    roc_auc,
)
from oracles import reference_brier, reference_confidences, reference_entropy

# frozen hand-oracle values (scalar math on the documented formulas)
ENTROPY_08_02 = 0.5004024235381879
NLL_09_06 = 0.30809306971190853
BRIER_07_CLASS0 = 0.09000000000000001
AUC_TIED_EXAMPLE = 0.875
ECE_HAND_EXAMPLE = 0.325


def brute_force_auc(scores, labels):
    """Mann-Whitney by explicit pair counting with half-credit ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


class TestPredictionBatch:
    def test_row_sum_enforced(self):
        with pytest.raises(InvalidInputError):
            PredictionBatch(np.array([[0.5, 0.4]]), np.array([0]))

    def test_prob_range_enforced(self):
        with pytest.raises(InvalidInputError):
            PredictionBatch(np.array([[1.2, -0.2]]), np.array([0]))

    def test_label_range_enforced(self):
        with pytest.raises(InvalidInputError):
            PredictionBatch(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.filterwarnings("error")
    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one row"):
            PredictionBatch(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    @pytest.mark.filterwarnings("error")
    def test_nan_probability_rejected(self):
        # NaN passes p < 0 and p > 1 alike; the check must refuse it
        with pytest.raises(InvalidInputError, match="lie in"):
            PredictionBatch(np.array([[0.5, 0.5], [np.nan, np.nan]]), np.array([0, 1]))

    @pytest.mark.parametrize("label", [1.5, np.nan, np.inf, -1.0, 2.0])
    @pytest.mark.filterwarnings("error")  # no cast warning before the check
    def test_label_must_be_a_class_index(self, label):
        with pytest.raises(InvalidInputError, match="labels must be integers"):
            PredictionBatch(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.0, label]))

    def test_confidence_and_correctness(self):
        batch = PredictionBatch(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 0]))
        np.testing.assert_allclose(batch.confidences(), [0.7, 0.8])
        np.testing.assert_allclose(batch.correct, [1.0, 0.0])

    def test_argmax_tie_lowest_index(self):
        batch = PredictionBatch(np.array([[0.5, 0.5]]), np.array([1]))
        assert batch.predictions()[0] == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_two_classes_only(self, k):
        # every metric of a batch is binary: NLL, and the AUC and referral
        # curves that score class 1
        with pytest.raises(InvalidInputError, match=f"2 class probabilities, got {k}"):
            PredictionBatch(np.full((2, k), 1.0 / k), np.array([0, 0]))

    @pytest.mark.filterwarnings("error")
    def test_shape_is_checked_before_values(self):
        # three columns of out-of-range values: refused for the columns
        probs = np.array([[1.5, -0.5, 0.0], [2.0, 0.0, -1.0]])
        with pytest.raises(InvalidInputError, match="2 class probabilities, got 3"):
            PredictionBatch(probs, np.array([0, 1]))

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_row_facts_have_the_oracle_bits(self, k):
        # one-hot rows (entropy -0.0), zero entries and argmax ties included;
        # rows of other than two classes are refused before any row fact
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(k), size=300)
        probs[rng.random(300) < 0.3, 0] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        probs[:k] = np.eye(k)
        probs[k] = 1.0 / k
        labels = rng.integers(k, size=300)
        if k != 2:
            with pytest.raises(InvalidInputError, match=f"2 class probabilities, got {k}"):
                PredictionBatch(probs, labels)
            return
        batch = PredictionBatch(probs, labels)
        assert batch.uncertainty.tobytes() == reference_entropy(probs).tobytes()
        correct = (probs.argmax(axis=1) == labels).astype(np.float64)
        assert batch.correct.tobytes() == correct.tobytes()

    def test_class_columns_give_the_bits_of_axis_reductions(self):
        # softmax rows at several scales, so some probabilities are tiny or
        # underflow to 0; one-hot and tied rows too
        rng = np.random.default_rng(31)
        probs = softmax(rng.normal(size=(2000, 2))
                        * rng.choice([0.01, 1.0, 30.0, 800.0], size=(2000, 1)))
        probs[:2] = np.eye(2)
        probs[2] = 0.5
        labels = rng.integers(2, size=2000)
        batch = PredictionBatch(probs, labels)
        assert batch.uncertainty.tobytes() == reference_entropy(probs).tobytes()
        assert batch.confidences().tobytes() == reference_confidences(probs).tobytes()
        assert brier_score(batch) == reference_brier(probs, labels)

    def test_row_facts_are_computed_once(self):
        batch = PredictionBatch(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 0]))
        assert batch.uncertainty is batch.uncertainty
        assert batch.correct is batch.correct


class TestPredictiveEntropy:
    @staticmethod
    def entropy(probs):
        return PredictionBatch(probs, np.zeros(len(probs), dtype=np.int64)).uncertainty

    def test_hand_oracle(self):
        h = self.entropy(np.array([[0.8, 0.2]]))
        assert abs(h[0] - ENTROPY_08_02) <= 1e-9

    def test_one_hot_row_is_zero(self):
        assert (self.entropy(np.eye(2)) == 0.0).all()

    def test_uniform_is_ln_k(self):
        h = self.entropy(np.full((4, 2), 0.5))
        assert np.abs(h - np.log(2)).max() <= 1e-12

    def test_bounds_random_rows(self):
        h = self.entropy(np.random.default_rng(0).dirichlet(np.ones(2), size=50))
        assert (h >= 0.0).all()
        assert (h <= np.log(2) + 1e-12).all()

    def test_rejects_bad_row(self):
        with pytest.raises(InvalidInputError):
            self.entropy(np.array([[0.5, 0.5], [0.9, 0.2]]))

    def test_rejects_single_row_vector(self):
        with pytest.raises(InvalidInputError, match="N x K"):
            self.entropy(np.array([0.8, 0.2]))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
    def test_rejects_rows_of_no_classes(self, shape):
        # a row of no classes cannot be folded; 0 x 0 was once returned as
        # an empty entropy before the fold
        with pytest.raises(InvalidInputError, match="2 class probabilities, got 0"):
            self.entropy(np.empty(shape))


class TestReliabilityAndEce:
    def _hand_batch(self):
        probs = np.array([
            [0.05, 0.95],
            [0.15, 0.85],
            [0.65, 0.35],
            [0.55, 0.45],
        ])
        labels = np.array([1, 1, 1, 0])
        return PredictionBatch(probs, labels)

    def test_hand_binning_oracle(self):
        batch = self._hand_batch()
        np.testing.assert_allclose(batch.confidences(), [0.95, 0.85, 0.65, 0.55])
        np.testing.assert_allclose(batch.correct, [1, 1, 0, 1])
        ece, bins = expected_calibration_error(batch, bin_width=0.1)
        assert abs(ece - ECE_HAND_EXAMPLE) <= 1e-9
        gaps = bins.gaps()
        filled = bins.counts > 0
        np.testing.assert_allclose(
            np.sort(gaps[filled]), [0.05, 0.15, 0.45, 0.65], atol=1e-12
        )

    def test_bin_edges_half_open(self):
        # confidence exactly on an edge belongs to the lower bin
        probs = np.array([[0.8, 0.2], [0.2, 0.8]])
        batch = PredictionBatch(probs, np.array([0, 1]))
        bins = reliability_bins(batch, bin_width=0.1)
        assert bins.counts[7] == 2  # bin (0.7, 0.8]
        assert bins.counts[8] == 0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(2), size=100)
        batch = PredictionBatch(probs, rng.integers(0, 2, size=100))
        bins = reliability_bins(batch, bin_width=0.1)
        assert bins.counts.sum() == 100

    def test_narrowest_width_makes_max_bins(self):
        bins = reliability_bins(self._hand_batch(), bin_width=1.0 / MAX_BINS)
        assert len(bins.counts) == MAX_BINS
        assert bins.counts.sum() == 4

    @pytest.mark.parametrize("bin_width", [
        np.nextafter(1.0 / MAX_BINS, 0.0), 1e-9, 5e-324, 0.0, -0.1,
        np.nextafter(1.0, 2.0), np.nan])
    def test_width_past_the_bin_cap_refused(self, monkeypatch, bin_width):
        # refused before anything is allocated: 1e-9 would ask for ~8 GB
        # per array, and a subnormal width for an infinite bin count
        batch = self._hand_batch()
        monkeypatch.setattr(np, "arange", None)
        monkeypatch.setattr(np, "bincount", None)
        with pytest.raises(InvalidInputError, match="bin_width must lie in"):
            reliability_bins(batch, bin_width)

    def test_perfectly_calibrated_ece_zero(self):
        # constant confidence c with accuracy exactly c in its bin
        probs = np.array([[0.75, 0.25]] * 4)
        labels = np.array([0, 0, 0, 1])
        ece, _ = expected_calibration_error(PredictionBatch(probs, labels), 0.1)
        assert abs(ece) <= 1e-12

    def test_empty_bins_nan(self):
        batch = self._hand_batch()
        bins = reliability_bins(batch, bin_width=0.1)
        assert np.isnan(bins.conf_mean[bins.counts == 0]).all()


class TestNll:
    def test_hand_oracle(self):
        probs = np.array([[0.1, 0.9], [0.6, 0.4]])
        labels = np.array([1, 0])
        nll = negative_log_likelihood_binary(PredictionBatch(probs, labels))
        assert abs(nll - NLL_09_06) <= 1e-9

    def test_binary_only(self):
        probs = np.full((2, 3), 1 / 3)
        with pytest.raises(InvalidInputError, match="2 class probabilities, got 3"):
            negative_log_likelihood_binary(PredictionBatch(probs, np.array([0, 1])))

    def test_clipped_at_floor(self):
        probs = np.array([[1.0, 0.0]])
        nll = negative_log_likelihood_binary(PredictionBatch(probs, np.array([1])))
        assert abs(nll - (-np.log(1e-12))) <= 1e-9


class TestBrier:
    def test_hand_oracle(self):
        batch = PredictionBatch(np.array([[0.7, 0.3]]), np.array([0]))
        assert abs(brier_score(batch) - BRIER_07_CLASS0) <= 1e-9

    def test_perfect_prediction_zero(self):
        batch = PredictionBatch(np.array([[0.0, 1.0]]), np.array([1]))
        assert brier_score(batch) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(2), size=50)
        batch = PredictionBatch(probs, rng.integers(0, 2, size=50))
        assert 0.0 <= brier_score(batch) <= 1.0


class TestRocAuc:
    def test_tied_pair_oracle(self):
        scores = np.array([0.9, 0.4, 0.4, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert abs(roc_auc(scores, labels) - AUC_TIED_EXAMPLE) <= 1e-9

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 2, size=n)
            if len(np.unique(labels)) < 2:
                continue
            # quantized scores force ties
            scores = np.round(rng.random(n), 1)
            assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-9

    def test_perfect_separation(self):
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.array([0.5, 0.6]), np.array([1, 1]))

    def test_complement_symmetry(self):
        rng = np.random.default_rng(13)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.5).astype(int)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        a = roc_auc(scores, labels)
        b = roc_auc(-scores, 1 - labels)
        assert abs(a - b) <= 1e-12


def assert_same_ranks(x):
    ours = rank_average(x)
    ref = stats.rankdata(x, method="average")
    assert ours.dtype == ref.dtype == np.float64
    assert ours.tobytes() == ref.tobytes()


class TestRankAverage:
    """scipy.stats.rankdata(method="average") is the reference, bit for bit."""

    def test_untied(self):
        rng = np.random.default_rng(21)
        for n in (2, 7, 100, 5000):
            assert_same_ranks(rng.normal(size=n))

    def test_heavy_ties(self):
        rng = np.random.default_rng(22)
        for n in (5, 40, 3000):
            for levels in (2, 3, 10):
                assert_same_ranks(rng.integers(0, levels, size=n) / levels)

    def test_all_equal(self):
        assert_same_ranks(np.full(9, 0.25))
        assert rank_average(np.full(4, 3.0)).tolist() == [2.5, 2.5, 2.5, 2.5]

    def test_length_zero_and_one(self):
        assert_same_ranks(np.array([], dtype=np.float64))
        assert_same_ranks(np.array([0.7]))

    def test_int_input(self):
        rng = np.random.default_rng(23)
        assert_same_ranks(rng.integers(-5, 5, size=200))
        assert rank_average(np.array([0, 2, 3, 2])).tolist() == [1.0, 2.5, 4.0, 2.5]

    def test_signed_zeros_tie(self):
        assert_same_ranks(np.array([0.0, -0.0, 1.0, -0.0]))

    def test_nan_makes_every_rank_nan(self):
        x = np.array([0.0, 2.0, 3.0, np.nan, -2.0, np.nan])
        out = rank_average(x)
        ref = stats.rankdata(x, method="average")
        assert out.dtype == np.float64
        assert np.isnan(out).all() and np.isnan(ref).all()
        assert out.shape == ref.shape

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(
        # tied: few distinct values, signed zeros among them
        hnp.arrays(np.float64, st.integers(0, 300),
                   elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, 1e300])),
        # integer-valued, as an integer array
        hnp.arrays(np.int64, st.integers(0, 300), elements=st.integers(-3, 3)),
        # NaN-holding: NaN as often as any other float, infinities included
        hnp.arrays(np.float64, st.integers(0, 300),
                   elements=st.one_of(st.just(np.nan),
                                      st.floats(allow_nan=True, allow_infinity=True))),
    ))
    def test_matches_rankdata_property(self, x):
        assert_same_ranks(x)

    def test_rejects_non_vector(self):
        with pytest.raises(InvalidInputError):
            rank_average(np.zeros((2, 3)))

    def test_roc_auc_on_tied_scores_unchanged(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(4, 300))
            labels = rng.integers(0, 2, size=n)
            if len(np.unique(labels)) < 2:
                continue
            scores = np.round(rng.random(n), 1)
            pos = labels == 1
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ranks = stats.rankdata(scores, method="average")
            expected = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
            assert roc_auc(scores, labels) == expected


class TestAccuracy:
    def test_simple(self):
        batch = PredictionBatch(
            np.array([[0.9, 0.1], [0.4, 0.6], [0.3, 0.7]]), np.array([0, 0, 1])
        )
        assert abs(accuracy(batch) - 2.0 / 3.0) <= 1e-12
